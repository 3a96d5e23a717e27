#!/usr/bin/env python3
"""Validates a bench JSONL file produced via SKIPNODE_BENCH_JSON.

Usage: validate_bench_jsonl.py BENCH_NAME FILE.jsonl [--baseline FILE.jsonl]

Checks every line parses as a JSON object with the per-cell schema from
DESIGN.md section 9, plus bench-specific invariants:
  * table8 records must carry per-kernel telemetry (tensor.gemm and
    sparse.spmm with positive counts) and a positive ms_per_epoch headline.
  * micro must show the fused SkipNode propagation beating the naive
    SpMM + RowSelect at rho=0.5 with spmm.rows_skipped > 0 in the fused
    cell's telemetry (the DESIGN section 10 acceptance signal).
  * micro must also emit transposed-SpMM cells (spmm_t at 1 and 4 threads,
    spmm_t_masked over rho) with the rho=1.0 masked gather beating the
    unmasked one and spmm_t.rows_skipped > 0 at rho=0.5. Thread speedup is
    NOT hard-checked: CI hosts may be single-core.
  * micro must emit the spmm_gather cells (DESIGN sections 7 and 14): on
    the 100k-row DC-SBM the library's prefetched gather (library=1) must be
    >= 1.3x faster than the loop without the prefetch (library=0); on
    cora_like, below the prefetch threshold, at most 1.05x slower.
  * micro must emit the gemm_row cells (DESIGN section 14) for shapes
    cora_x_w, h_w, synth_x_w and ht_g in both library=0 (the per-entry
    Axpy loop) and library=1 (Gemm's row kernel) variants, with the
    library >= 2x faster on the three A·B shapes and >= 1.5x on ht_g.
  * micro must emit the SIMD sweep (DESIGN section 14): simd_gemm /
    simd_gemm_tb / simd_axpby / simd_adam in both simd=0 and simd=1
    variants, with the vectorized variant >= 1.5x faster on each of those
    four cells (simd_spmm / simd_relu are informational, presence-checked
    only).
  * micro must emit the cdf_lookup cell (DESIGN section 13) in both
    guided=0 (std::upper_bound) and guided=1 (CdfTable) variants, with the
    guide table >= 3x faster.
  * micro must emit the pool fan-out cells (DESIGN section 7): pool_fanout
    timings (cpu_ns_per_op and ns_per_op at widths 1 and 4), recorded but
    not gated, and pool_fanout_dispatch, whose counts are gated: at width 4,
    declared work one unit below kMinWorkPerChunk dispatches no pool job,
    and work at twice the grain dispatches one.
  * serve must show batched serving at 8 client threads reaching >= 2x the
    one-request-at-a-time EvaluateLogits baseline throughput, with p50/p99
    latency records present (the DESIGN section 11 acceptance signal).
  * serve must also emit the serve_overload cells (DESIGN section 12): past
    capacity the shed policies reject structurally (shed_rate > 0) with
    queue_peak <= capacity and a survivor p99 no worse than the block
    policy's; block and the above-capacity control cell shed nothing and
    complete everything.
  * scale must emit a checked stream_train cell whose
    rss_over_footprint stays <= 2.0 — peak RSS within 2x of the resident
    CSR+features footprint, the streaming-construction acceptance bound
    (DESIGN section 13) — plus depth_sweep ms_per_epoch cells at rho 0
    and rho > 0.
  * scale must also pass the minibatch-sampling acceptance (DESIGN
    section 15): the sampled_train cell's ms_per_epoch <= 0.5x the
    full-batch stream_train cell on the same graph, its
    rss_over_footprint <= 2.0 against the graph + sampler footprint, its
    pool_retained_growth (workspace-pool bytes after the last evaluated
    epoch over those after the first, over >= 6 epochs) <= 2.0,
    sampler.edges_pruned > 0 in its telemetry whenever rho > 0, and the
    sampled_accuracy val_accuracy within 0.15 of the full-batch run.

With --baseline, diffs the run against a committed baseline (filtered to
BENCH_NAME). The (cell, metric) pairs must match both ways: a pair in the
baseline but missing from the run is schema drift, and a pair the run emits
but the baseline lacks is a cell no baseline guards (a new cell, or a new
bench, needs a baseline refresh); either fails. A cell that got much slower
than the baseline elapsed_ns only warns (timing noise is expected across
machines).
"""
import json
import sys

REQUIRED_KEYS = (
    "bench", "cell", "scale", "threads", "params", "metric", "value",
    "elapsed_ns", "telemetry",
)

# A run must be this many times slower than the baseline before the
# regression warning fires; smoke cells are tiny and noisy.
ELAPSED_WARN_FACTOR = 5.0


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def load_records(path, bench_name=None, validate=False):
    """Parses a JSONL file; optionally schema-validates every record.

    When bench_name is given, records for other benches are dropped (the
    committed baseline holds every bench in one file).
    """
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: invalid JSON: {e}")
            if not isinstance(record, dict):
                fail(f"{path}:{lineno}: record is not an object")
            if validate:
                for key in REQUIRED_KEYS:
                    if key not in record:
                        fail(f"{path}:{lineno}: missing key {key!r}")
                if record["bench"] != bench_name:
                    fail(f"{path}:{lineno}: bench={record['bench']!r}, "
                         f"expected {bench_name!r}")
                if not isinstance(record["params"], dict):
                    fail(f"{path}:{lineno}: params is not an object")
                if not isinstance(record["telemetry"], dict):
                    fail(f"{path}:{lineno}: telemetry is not an object")
                if not isinstance(record["value"], (int, float)):
                    fail(f"{path}:{lineno}: value is not numeric")
                if not isinstance(record["elapsed_ns"], int) or \
                        record["elapsed_ns"] < 0:
                    fail(f"{path}:{lineno}: elapsed_ns is not a "
                         f"non-negative int")
                for name, stat in record["telemetry"].items():
                    for field in ("count", "items", "total_ns", "max_ns"):
                        if field not in stat:
                            fail(f"{path}:{lineno}: telemetry[{name!r}] "
                                 f"missing {field!r}")
            if bench_name is not None and record.get("bench") != bench_name:
                continue
            records.append(record)
    return records


def check_table8(path, records):
    epochs = [r for r in records if r["metric"] == "ms_per_epoch"]
    if not epochs:
        fail(f"{path}: table8 emitted no ms_per_epoch records")
    for r in epochs:
        if r["value"] <= 0:
            fail(f"{path}: ms_per_epoch not positive in cell {r['cell']!r}")
        for kernel in ("tensor.gemm", "sparse.spmm"):
            stat = r["telemetry"].get(kernel)
            if stat is None or stat["count"] <= 0:
                fail(f"{path}: cell {r['cell']!r} missing per-kernel "
                     f"telemetry for {kernel}")


def check_micro(path, records):
    """The fused-propagation acceptance check (DESIGN section 10)."""
    def sweep_cell(cell, rho):
        for r in records:
            if r["cell"] == cell and r["metric"] == "ns_per_op" and \
                    r["params"].get("rho") == rho:
                return r
        fail(f"{path}: micro emitted no {cell!r} ns_per_op record "
             f"at rho={rho}")

    naive = sweep_cell("spmm_naive", 0.5)
    fused = sweep_cell("spmm_fused", 0.5)
    if fused["value"] >= naive["value"]:
        fail(f"{path}: fused propagation ({fused['value']:.0f} ns) did not "
             f"beat naive ({naive['value']:.0f} ns) at rho=0.5")
    skipped = fused["telemetry"].get("spmm.rows_skipped")
    if skipped is None or skipped["items"] <= 0:
        fail(f"{path}: fused rho=0.5 cell reports no spmm.rows_skipped "
             f"telemetry")

    # Transposed-SpMM sweep (the backward gather). Presence at 1 and 4
    # threads is required; the 4-thread cell is not required to be faster —
    # CI hosts may be single-core (see EXPERIMENTS.md), so the only timing
    # invariant hard-checked is work-proportional: the masked gather at
    # rho=0.5 skips ~half the plan entries and must beat the unmasked
    # gather regardless of core count.
    spmm_t = {}
    for threads in (1, 4):
        for r in records:
            if r["cell"] == "spmm_t" and r["metric"] == "ns_per_op" and \
                    r["threads"] == threads:
                spmm_t[threads] = r
                break
        else:
            fail(f"{path}: micro emitted no 'spmm_t' ns_per_op record "
                 f"at threads={threads}")
    # Timing is hard-checked at rho=1.0 (everything skipped, ~5x margin);
    # rho=0.5 pays maximal skip-branch misprediction and its ~1.1-1.5x win
    # flakes on noisy hosts, so it only contributes the telemetry signal.
    masked_half = sweep_cell("spmm_t_masked", 0.5)
    masked_all = sweep_cell("spmm_t_masked", 1.0)
    unmasked_ns = min(r["value"] for r in spmm_t.values())
    if masked_all["value"] >= unmasked_ns:
        fail(f"{path}: fully-masked transposed gather "
             f"({masked_all['value']:.0f} ns) did not beat unmasked "
             f"({unmasked_ns:.0f} ns) at rho=1.0")
    t_skipped = masked_half["telemetry"].get("spmm_t.rows_skipped")
    if t_skipped is None or t_skipped["items"] <= 0:
        fail(f"{path}: spmm_t_masked rho=0.5 cell reports no "
             f"spmm_t.rows_skipped telemetry")

    # Prefetched sparse gather (DESIGN sections 7 and 14). Both variants run
    # one thread, alternating op by op inside each of 21 samples, and both
    # record the sample whose paired ratio is the median, so the ratio below
    # is the median paired ratio; the bench aborts unless their outputs are
    # bitwise equal. On the 100k-row DC-SBM the operand outgrows L2 and the
    # prefetch must pay (1.34-1.51x over 6 runs at 21 samples; a build whose
    # prefetch never fires reads 0.99-1.00x); on cora_like it stays below
    # the threshold, so both run the same loop and the library may not be
    # more than 5 % slower (0.99-1.00x over 10 runs).
    GATHER_SPEEDUP_FLOOR = 1.3
    GATHER_SMALL_SLOWDOWN_CAP = 1.05

    def gather_cell(graph, library):
        for r in records:
            if r["cell"] == "spmm_gather" and r["metric"] == "ns_per_op" and \
                    r["params"].get("graph") == graph and \
                    r["params"].get("library") == library:
                return r
        fail(f"{path}: micro emitted no 'spmm_gather' ns_per_op record "
             f"for graph={graph} library={library}")

    for graph in ("dcsbm_100k", "cora_like"):
        reference = gather_cell(graph, 0)
        library = gather_cell(graph, 1)
        if reference["value"] <= 0 or library["value"] <= 0:
            fail(f"{path}: spmm_gather {graph} ns_per_op is not positive")
        speedup = reference["value"] / library["value"]
        if graph == "dcsbm_100k" and speedup < GATHER_SPEEDUP_FLOOR:
            fail(f"{path}: spmm_gather prefetch speedup {speedup:.2f}x on "
                 f"{graph} is below the {GATHER_SPEEDUP_FLOOR}x floor "
                 f"({reference['value']:.0f} ns without vs "
                 f"{library['value']:.0f} ns with)")
        if graph == "cora_like" and \
                1 / speedup > GATHER_SMALL_SLOWDOWN_CAP:
            fail(f"{path}: spmm_gather on {graph} is {1 / speedup:.3f}x "
                 f"slower than the loop without the prefetch, above the "
                 f"{GATHER_SMALL_SLOWDOWN_CAP}x cap")

    # Register-tiled Gemm row kernel (DESIGN section 14). The library Gemm
    # and a bench-local copy of the per-entry Axpy loop it replaced run one
    # thread, alternating op by op inside each of 7 samples, and both record
    # the sample whose paired ratio is the median; the bench aborts unless
    # their outputs are bitwise equal. The A·B cells must reach 2x (2.8-4.1x measured) and the
    # backward's Hᵀ·G 1.5x (2.8-3.6x measured).
    GEMM_ROW_FLOORS = {"cora_x_w": 2.0, "h_w": 2.0, "synth_x_w": 2.0,
                       "ht_g": 1.5}

    def gemm_row_cell(shape, library):
        for r in records:
            if r["cell"] == "gemm_row" and r["metric"] == "ns_per_op" and \
                    r["params"].get("shape") == shape and \
                    r["params"].get("library") == library:
                return r
        fail(f"{path}: micro emitted no 'gemm_row' ns_per_op record "
             f"for shape={shape} library={library}")

    for shape, floor in GEMM_ROW_FLOORS.items():
        reference = gemm_row_cell(shape, 0)
        library = gemm_row_cell(shape, 1)
        if reference["value"] <= 0 or library["value"] <= 0:
            fail(f"{path}: gemm_row {shape} ns_per_op is not positive")
        speedup = reference["value"] / library["value"]
        if speedup < floor:
            fail(f"{path}: gemm_row speedup {speedup:.2f}x on {shape} is "
                 f"below the {floor}x floor ({reference['value']:.0f} ns "
                 f"for the Axpy loop vs {library['value']:.0f} ns)")

    # SIMD sweep (DESIGN section 14): the vectorized microkernels must beat
    # the retained scalar references by >= 1.5x single-threaded on the four
    # gate cells. The margin is conservative — the portable build's
    # compiler-vectorized strips measure ~3-4x on a 4-lane SSE2 baseline.
    SIMD_SPEEDUP_FLOOR = 1.5

    def simd_cell(cell, simd_on):
        for r in records:
            if r["cell"] == cell and r["metric"] == "ns_per_op" and \
                    r["params"].get("simd") == simd_on:
                return r
        fail(f"{path}: micro emitted no {cell!r} ns_per_op record "
             f"at simd={simd_on}")

    for cell in ("simd_gemm", "simd_gemm_tb", "simd_axpby", "simd_adam"):
        scalar = simd_cell(cell, 0)
        vector = simd_cell(cell, 1)
        if vector["value"] <= 0:
            fail(f"{path}: {cell} simd=1 ns_per_op is not positive")
        speedup = scalar["value"] / vector["value"]
        if speedup < SIMD_SPEEDUP_FLOOR:
            fail(f"{path}: {cell} vectorized speedup {speedup:.2f}x is "
                 f"below the {SIMD_SPEEDUP_FLOOR}x floor "
                 f"({scalar['value']:.0f} ns scalar vs "
                 f"{vector['value']:.0f} ns vectorized)")
    for cell in ("simd_spmm", "simd_relu"):
        simd_cell(cell, 0)
        simd_cell(cell, 1)

    # Guide-table CDF lookup (DESIGN section 13): the library's CdfTable must
    # beat the std::upper_bound reference by >= 3x on the 200k-entry
    # propensity table (~7-8x measured); the bench itself aborts unless both
    # return the same index sum.
    CDF_SPEEDUP_FLOOR = 3.0

    def cdf_cell(guided):
        for r in records:
            if r["cell"] == "cdf_lookup" and r["metric"] == "ns_per_op" and \
                    r["params"].get("guided") == guided:
                return r
        fail(f"{path}: micro emitted no 'cdf_lookup' ns_per_op record "
             f"at guided={guided}")

    search = cdf_cell(0)
    guided = cdf_cell(1)
    if guided["value"] <= 0:
        fail(f"{path}: cdf_lookup guided=1 ns_per_op is not positive")
    speedup = search["value"] / guided["value"]
    if speedup < CDF_SPEEDUP_FLOOR:
        fail(f"{path}: cdf_lookup guide-table speedup {speedup:.2f}x is "
             f"below the {CDF_SPEEDUP_FLOOR}x floor "
             f"({search['value']:.1f} ns upper_bound vs "
             f"{guided['value']:.1f} ns guided)")


def check_pool_fanout(path, records):
    """The one grain behind every parallel kernel (DESIGN section 7)."""
    for threads in (1, 4):
        for metric in ("cpu_ns_per_op", "ns_per_op"):
            if not any(r["cell"] == "pool_fanout" and
                       r["metric"] == metric and r["threads"] == threads
                       for r in records):
                fail(f"{path}: micro emitted no 'pool_fanout' {metric} "
                     f"record at threads={threads}")

    def dispatches(where):
        for r in records:
            if r["cell"] == "pool_fanout_dispatch" and \
                    r["params"].get("work_over_grain") == where:
                return r["value"]
        fail(f"{path}: micro emitted no 'pool_fanout_dispatch' record for "
             f"work_over_grain={where}")

    below = dispatches("below")
    if below != 0:
        fail(f"{path}: declared work below the pool's grain dispatched "
             f"{below:.0f} pool job(s); it must run inline")
    at_twice = dispatches("2x")
    if at_twice < 1:
        fail(f"{path}: declared work at twice the pool's grain dispatched "
             f"no pool job")


def check_serve(path, records):
    """The serving-layer acceptance check (DESIGN section 11): batched
    serving at 8 client threads must beat the one-request-at-a-time
    EvaluateLogits baseline by >= 2x throughput. The margin is huge by
    construction (the baseline re-runs the full forward per request, the
    server reads precomputed tables), so 2x holds on any host."""
    def throughput(cell, clients):
        for r in records:
            if r["cell"] == cell and r["metric"] == "throughput_rps" and \
                    r["params"].get("clients") == clients:
                return r["value"]
        fail(f"{path}: serve emitted no {cell!r} throughput_rps record "
             f"at clients={clients}")

    baseline = throughput("eval_baseline", 1)
    batched = throughput("serve", 8)
    if baseline <= 0:
        fail(f"{path}: eval_baseline throughput is not positive")
    if batched < 2.0 * baseline:
        fail(f"{path}: batched serving at 8 clients ({batched:.0f} req/s) "
             f"did not reach 2x the EvaluateLogits baseline "
             f"({baseline:.0f} req/s)")
    for metric in ("p50_us", "p99_us"):
        if not any(r["metric"] == metric and r["cell"] == "serve"
                   for r in records):
            fail(f"{path}: serve emitted no {metric} records")
    # The baseline cell must actually be re-running the forward: its
    # telemetry carries one serve.freeze per request.
    for r in records:
        if r["cell"] == "eval_baseline" and \
                r["metric"] == "throughput_rps":
            freeze = r["telemetry"].get("serve.freeze")
            if freeze is None or freeze["count"] < \
                    r["params"].get("requests", 1):
                fail(f"{path}: eval_baseline telemetry does not show one "
                     f"serve.freeze per request")

    # Overload cells (DESIGN section 12): admission control must actually
    # bound the queue and shed structurally past capacity, and only there.
    def overload_cell(policy, tight):
        by_metric = {}
        for r in records:
            if r["cell"] != "serve_overload" or \
                    r["params"].get("policy") != policy:
                continue
            capacity = r["params"].get("capacity", 0)
            requests = r["params"].get("requests", 0)
            if tight != (capacity < requests):
                continue
            by_metric[r["metric"]] = r
        if not by_metric:
            fail(f"{path}: serve emitted no serve_overload cell for "
                 f"policy={policy!r} ({'tight' if tight else 'ample'} "
                 f"capacity)")
        for metric in ("throughput_rps", "p99_us", "shed_rate",
                       "completion_rate", "queue_peak"):
            if metric not in by_metric:
                fail(f"{path}: serve_overload policy={policy!r} cell is "
                     f"missing metric {metric!r}")
        capacity = by_metric["shed_rate"]["params"]["capacity"]
        if by_metric["queue_peak"]["value"] > capacity:
            fail(f"{path}: serve_overload policy={policy!r} queue_peak "
                 f"{by_metric['queue_peak']['value']:.0f} exceeds the "
                 f"capacity {capacity}")
        return by_metric

    block = overload_cell("block", tight=True)
    if block["shed_rate"]["value"] != 0.0:
        fail(f"{path}: the block policy shed requests "
             f"(shed_rate={block['shed_rate']['value']})")
    if block["completion_rate"]["value"] != 1.0:
        fail(f"{path}: the block policy did not complete every request "
             f"(completion_rate={block['completion_rate']['value']})")
    shed_p99s = []
    for policy in ("shed-newest", "shed-oldest"):
        cell = overload_cell(policy, tight=True)
        if cell["shed_rate"]["value"] <= 0.0:
            fail(f"{path}: policy {policy!r} shed nothing past capacity "
                 f"under burst load")
        shed_p99s.append(cell["p99_us"]["value"])
    # The point of shedding: survivors' tail latency is bounded by the
    # queue cap, so the best shed policy cannot be worse than block's p99.
    if min(shed_p99s) > block["p99_us"]["value"]:
        fail(f"{path}: shedding did not bound p99 (best shed "
             f"{min(shed_p99s):.0f} us vs block "
             f"{block['p99_us']['value']:.0f} us)")
    ample = overload_cell("shed-newest", tight=False)
    if ample["shed_rate"]["value"] != 0.0:
        fail(f"{path}: requests were shed below capacity "
             f"(shed_rate={ample['shed_rate']['value']})")


def check_scale(path, records):
    """The streaming-construction acceptance check (DESIGN section 13):
    generating + training the dense synth graph must keep the process peak
    RSS within 2x of the resident CSR+features footprint. The checked cell
    runs first in the binary, so its ru_maxrss high-water mark is
    attributable to that one graph."""
    RSS_BUDGET_FACTOR = 2.0
    checked = [r for r in records
               if r["cell"] == "stream_train" and
               r["metric"] == "rss_over_footprint" and
               r["params"].get("checked") == 1]
    if not checked:
        fail(f"{path}: scale emitted no checked rss_over_footprint record")
    for r in checked:
        if r["value"] <= 0:
            fail(f"{path}: rss_over_footprint is not positive")
        if r["value"] > RSS_BUDGET_FACTOR:
            fail(f"{path}: peak RSS is {r['value']:.2f}x the resident "
                 f"CSR+features footprint at {r['params'].get('nodes')} "
                 f"nodes (budget {RSS_BUDGET_FACTOR:.1f}x) — streaming "
                 f"construction is leaking working memory")
    for metric in ("build_ms", "footprint_bytes", "peak_rss_bytes"):
        if not any(r["cell"] == "stream_train" and r["metric"] == metric
                   for r in records):
            fail(f"{path}: scale emitted no stream_train {metric} record")
    # The depth sweep must cover both the vanilla and the SkipNode rho.
    for want_skip in (False, True):
        if not any(r["cell"] == "depth_sweep" and
                   r["metric"] == "ms_per_epoch" and
                   (r["params"].get("rho", 0) > 0) == want_skip
                   for r in records):
            fail(f"{path}: depth_sweep has no ms_per_epoch cell with "
                 f"rho {'>' if want_skip else '='} 0")


def check_sampled(path, records):
    """The minibatch-sampling acceptance check (DESIGN section 15): one
    sampled epoch (a pass over the train split) must cost at most half a
    full-batch epoch on the same graph, stay within the 2x RSS budget
    against the graph + sampler footprint, keep the workspace pool bounded
    while every batch brings new frontier shapes, actually prune expansion
    work whenever rho > 0, and converge to within 0.15 of full-batch val
    accuracy."""
    SAMPLED_EPOCH_FACTOR = 0.5
    RSS_BUDGET_FACTOR = 2.0
    # A pool that keeps every batch's shapes grows with each batch (7.2x
    # over the smoke cell's 8 epochs); one that keeps only what later
    # batches reuse settles (1.6x). Fewer epochs could not tell them apart.
    POOL_GROWTH_FACTOR = 2.0
    MIN_POOL_EPOCHS = 6
    ACCURACY_TOLERANCE = 0.15

    def one(cell, metric, **params):
        for r in records:
            if r["cell"] == cell and r["metric"] == metric and \
                    all(r["params"].get(k) == v for k, v in params.items()):
                return r
        fail(f"{path}: scale emitted no {cell!r} {metric} record"
             + (f" with {params}" if params else ""))

    sampled = one("sampled_train", "ms_per_epoch")
    full = one("stream_train", "ms_per_epoch",
               nodes=sampled["params"].get("nodes"))
    if sampled["value"] <= 0:
        fail(f"{path}: sampled_train ms_per_epoch is not positive")
    if sampled["value"] > SAMPLED_EPOCH_FACTOR * full["value"]:
        fail(f"{path}: sampled epoch ({sampled['value']:.1f} ms) exceeds "
             f"{SAMPLED_EPOCH_FACTOR}x the full-batch epoch "
             f"({full['value']:.1f} ms) on the same graph")

    ratio = one("sampled_train", "rss_over_footprint")
    if not 0 < ratio["value"] <= RSS_BUDGET_FACTOR:
        fail(f"{path}: sampled_train peak RSS is {ratio['value']:.2f}x the "
             f"graph + sampler footprint (budget {RSS_BUDGET_FACTOR:.1f}x)")

    growth = one("sampled_train", "pool_retained_growth")
    if growth["params"].get("epochs", 0) < MIN_POOL_EPOCHS:
        fail(f"{path}: sampled_train ran {growth['params'].get('epochs')} "
             f"epochs; the pool growth gate needs >= {MIN_POOL_EPOCHS} for "
             f"per-batch growth to show")
    if not 0 < growth["value"] <= POOL_GROWTH_FACTOR:
        fail(f"{path}: sampled_train workspace pool retained "
             f"{growth['value']:.2f}x its first evaluated epoch's bytes at "
             f"the last (budget {POOL_GROWTH_FACTOR:.1f}x) — the pool keeps "
             f"storage no later batch reuses")

    if sampled["params"].get("rho", 0) > 0:
        pruned = sampled["telemetry"].get("sampler.edges_pruned")
        if pruned is None or pruned["items"] <= 0:
            fail(f"{path}: sampled_train at rho="
                 f"{sampled['params'].get('rho')} reports no "
                 f"sampler.edges_pruned telemetry — skip-aware frontier "
                 f"pruning never fired")

    full_acc = one("sampled_accuracy", "val_accuracy", mode="full")
    sampled_acc = one("sampled_accuracy", "val_accuracy", mode="sampled")
    if sampled_acc["value"] < full_acc["value"] - ACCURACY_TOLERANCE:
        fail(f"{path}: sampled val accuracy {sampled_acc['value']:.3f} "
             f"fell more than {ACCURACY_TOLERANCE} below full-batch "
             f"{full_acc['value']:.3f}")


def diff_against_baseline(path, records, baseline_path, bench_name):
    baseline = load_records(baseline_path, bench_name=bench_name)

    def keyed(recs):
        by_key = {}
        for r in recs:
            by_key.setdefault((r["cell"], r["metric"]), []).append(r)
        return by_key

    run_keys = keyed(records)
    base_keys = keyed(baseline)

    missing = sorted(set(base_keys) - set(run_keys))
    if missing:
        fail(f"{path}: schema drift vs {baseline_path}: baseline "
             f"(cell, metric) pairs missing from this run: {missing}")
    extra = sorted(set(run_keys) - set(base_keys))
    if extra:
        fail(f"{path}: {baseline_path} has no {bench_name!r} baseline for "
             f"(cell, metric) pairs this run emits: {extra} — refresh it "
             f"with BENCH_BASELINE_REFRESH=1 tools/check_bench_smoke.sh")

    warned = 0
    for key, base_recs in base_keys.items():
        base_ns = min(r["elapsed_ns"] for r in base_recs)
        run_ns = min(r["elapsed_ns"] for r in run_keys[key])
        if base_ns > 0 and run_ns > ELAPSED_WARN_FACTOR * base_ns:
            print(f"warning: {path}: cell {key[0]!r} metric {key[1]!r} took "
                  f"{run_ns} ns vs baseline {base_ns} ns "
                  f"(> {ELAPSED_WARN_FACTOR:.0f}x)", file=sys.stderr)
            warned += 1
    print(f"   baseline diff ok ({len(base_keys)} keys, "
          f"{warned} slow-cell warnings)")


def main():
    args = sys.argv[1:]
    baseline_path = None
    if "--baseline" in args:
        i = args.index("--baseline")
        if i + 1 >= len(args):
            fail("--baseline needs a path")
        baseline_path = args[i + 1]
        del args[i:i + 2]
    if len(args) != 2:
        fail(f"usage: {sys.argv[0]} BENCH_NAME FILE.jsonl "
             f"[--baseline FILE.jsonl]")
    bench_name, path = args

    records = load_records(path, bench_name=bench_name, validate=True)
    if not records:
        fail(f"{path}: no records emitted")

    if bench_name == "table8":
        check_table8(path, records)
    if bench_name == "micro":
        check_micro(path, records)
        check_pool_fanout(path, records)
    if bench_name == "serve":
        check_serve(path, records)
    if bench_name == "scale":
        check_scale(path, records)
        check_sampled(path, records)
    if baseline_path is not None:
        diff_against_baseline(path, records, baseline_path, bench_name)

    print(f"   {len(records)} records ok")


if __name__ == "__main__":
    main()
