// Command ledgerbench is the end-to-end cost ledger of the Polymorphic
// ECC system: it drives three consumer-level workloads through their
// public entry points, checks every outcome against ground truth, and
// prints the end-to-end metrics (--trace 0) or a per-layer breakdown
// from a traced run (--trace 1). The last line of standard output is
// one JSON object with the fields correct, attempted, failed and
// metrics. See README.md for the workloads and the metrics.
//
//	bash ledgerbench/run.sh --workload polysoak --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	// countBatches is the fixed batch prefix the exact outcome counts
	// (iters_per_corrected, due_frac) are taken over; the timed loop
	// always runs at least that many batches.
	countBatches int
}

// setupReps is how many times client 0 is set up; setup_s is the
// median of those set-ups.
const setupReps = 9

// defaultCountBatches keeps each client's count window under half of
// a 25s run on a 2-vCPU host.
var defaultCountBatches = map[string]int{"polysoak": 12, "memctlsoak": 3, "scrub": 400}

// heldOutSeed is the second seed every performance claim must also
// hold on; the default --seed is the one a change is developed with.
const heldOutSeed = 7919

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
		seconds  = flag.Float64("seconds", 25, "measured time per run")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	)
	flag.Parse()
	if *workload == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, countBatches: defaultCountBatches[*workload],
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runStats is the untraced measurement of one workload.
type runStats struct {
	setupS      []float64
	batchMs     []float64 // every client's batches
	ops         int64
	allocBytes  uint64
	busy        time.Duration // summed batch time over all clients
	outcome     digest        // every batch
	counted     digest        // every client's fixed count prefix
	clients     [][]digest    // per client, its batch digests in order
	mismatches  []string
	unit, batch string
	batchPl     string // plural of batch
}

func unitsOf(name string) (unit, batch, batchPl string) {
	if name == "scrub" {
		return "lines", "sweep", "sweeps"
	}
	return "trials", "batch", "batches"
}

// clientsOf is how many closed-loop clients drive a workload at once,
// and workersOf how many goroutines each client's batch runs on. Every
// workload keeps both vCPUs of a two-vCPU host busy: with one of them
// idle, that core's speed varies with its neighbours' load and the
// measurement with it.
func clientsOf(workload string) int {
	if workload == "polysoak" {
		return 1
	}
	return 2
}

func workersOf(workload string) int {
	if workload == "polysoak" {
		return polyWorkers
	}
	return 1
}

// clientSeed is the seed client c sets its workload up with; client 0
// runs the seed itself.
func clientSeed(seed int64, c int) int64 {
	if c == 0 {
		return seed
	}
	return int64(splitmix64(uint64(seed)^uint64(c)<<40) >> 1)
}

// clientRun is one client's closed loop of batches.
type clientRun struct {
	batchMs []float64
	busy    time.Duration
	digests []digest
	err     error
}

func (cr *clientRun) loop(w workload, countBatches int, deadline time.Time) {
	for i := 0; i < countBatches || time.Now().Before(deadline); i++ {
		w.prepare(i)
		start := time.Now()
		err := w.run(i)
		d := time.Since(start)
		if err != nil {
			cr.err = fmt.Errorf("batch %d: %w", i, err)
			return
		}
		cr.busy += d
		cr.batchMs = append(cr.batchMs, float64(d.Nanoseconds())/1e6)
		cr.digests = append(cr.digests, w.verify(i))
	}
}

// setupClients builds one workload per client. Client 0 is set up
// setupReps times, each timed for setup_s.
func setupClients(cfg config) ([]workload, []float64, error) {
	ws := make([]workload, clientsOf(cfg.workload))
	var setupS []float64
	for c := range ws {
		w, err := newWorkload(cfg.workload)
		if err != nil {
			return nil, nil, err
		}
		reps := 1
		if c == 0 {
			reps = setupReps
		}
		for i := 0; i < reps; i++ {
			runtime.GC()
			start := time.Now()
			if err := w.setup(clientSeed(cfg.seed, c)); err != nil {
				return nil, nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
			}
			if c == 0 {
				setupS = append(setupS, time.Since(start).Seconds())
			}
		}
		ws[c] = w
	}
	return ws, setupS, nil
}

// measure runs every client's batches until the budget is spent and at
// least countBatches have run on each, then repeats the first batches
// of client 0 for the determinism checks.
func measure(ws []workload, cfg config, budget time.Duration) (*runStats, error) {
	rs := &runStats{}
	rs.unit, rs.batch, rs.batchPl = unitsOf(cfg.workload)
	runs := make([]clientRun, len(ws))
	runtime.GC()
	a0 := heapAllocBytes()
	deadline := time.Now().Add(budget)
	var wg sync.WaitGroup
	for c := range runs {
		wg.Add(1)
		go func(cr *clientRun, w workload) {
			defer wg.Done()
			cr.loop(w, cfg.countBatches, deadline)
		}(&runs[c], ws[c])
	}
	wg.Wait()
	rs.allocBytes = heapAllocBytes() - a0
	for c := range runs {
		cr := &runs[c]
		if cr.err != nil {
			return nil, fmt.Errorf("%s client %d: %w", cfg.workload, c, cr.err)
		}
		rs.batchMs = append(rs.batchMs, cr.batchMs...)
		rs.busy += cr.busy
		rs.clients = append(rs.clients, cr.digests)
		for i, d := range cr.digests {
			rs.ops += d.Ops
			rs.outcome.add(d)
			if i < cfg.countBatches {
				rs.counted.add(d)
			}
		}
	}
	rs.mismatches = ws[0].recheck()
	return rs, nil
}

// laneNsPerOp is the lane time one op takes: busy time times the
// goroutines each batch runs on, over the ops.
func (rs *runStats) laneNsPerOp(workload string) float64 {
	return float64(rs.busy.Nanoseconds()) * float64(workersOf(workload)) / float64(rs.ops)
}

// failed counts the operations that failed: SDCs, panics and check
// mismatches in the batches, and a whole batch for every repeat or
// worker-count digest that did not reproduce.
func (rs *runStats) failed() int64 {
	n := rs.outcome.failures()
	if len(rs.mismatches) > 0 && len(rs.clients[0]) > 0 {
		n += int64(len(rs.mismatches)) * rs.clients[0][0].Ops
	}
	return n
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}

// endToEnd computes the end-to-end metrics an untraced run reports in
// its result line. The batch median is printed but not reported: sweep
// times on a host whose speed changes in phases are bimodal, and the
// median jumps between the modes with the phase mix of a run, while
// the p90 sits inside the slow mode.
func (rs *runStats) endToEnd() map[string]metric {
	return map[string]metric{
		"ops_per_s":           {float64(rs.ops) / rs.busy.Seconds() * float64(len(rs.clients)), "1/s"},
		"batch_p90_ms":        {quantile(rs.batchMs, 0.9), "ms"},
		"setup_s":             {median(rs.setupS), "s"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
		"alloc_bytes_per_op":  {float64(rs.allocBytes) / float64(rs.ops), "B"},
		"iters_per_corrected": {ratio(rs.counted.Iterations, rs.counted.Corrected), "count"},
	}
}

// printEndToEnd is the human-readable metric table: every end-to-end
// metric under its workload-specific name, with unit and sample count.
func printEndToEnd(out io.Writer, cfg config, rs *runStats, e2e map[string]metric) {
	fmt.Fprintf(out, "== %s: end-to-end (seed %d, %.0fs budget, GOMAXPROCS %d) ==\n",
		cfg.workload, cfg.seed, cfg.budget.Seconds(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "%-22s %-22s %14s %-6s %s\n", "metric", "json name", "value", "unit", "samples")
	opsName := rs.unit + "_per_s"
	p50, p90 := quantile(rs.batchMs, 0.5), e2e["batch_p90_ms"].Value
	row := func(name, key string, m metric, samples string) {
		fmt.Fprintf(out, "%-22s %-22s %14.6g %-6s %s\n", name, key, m.Value, m.Unit, samples)
	}
	nb := len(rs.batchMs)
	row(opsName, "ops_per_s", e2e["ops_per_s"], fmt.Sprintf("%d %s in %d %s of %d client(s), %.2fs timed per client",
		rs.ops, rs.unit, nb, rs.batchPl, len(rs.clients), rs.busy.Seconds()/float64(len(rs.clients))))
	row(rs.batch+"_p50_ms", "-", metric{p50, "ms"}, fmt.Sprintf("%d %s, %d above", nb, rs.batchPl, beyond(rs.batchMs, p50)))
	row(rs.batch+"_p90_ms", "batch_p90_ms", e2e["batch_p90_ms"], fmt.Sprintf("%d %s, %d above", nb, rs.batchPl, beyond(rs.batchMs, p90)))
	row("setup_s", "setup_s", e2e["setup_s"], fmt.Sprintf("median of %d set-ups", len(rs.setupS)))
	row("peak_rss_mb", "peak_rss_mb", e2e["peak_rss_mb"], "process peak")
	row("alloc_bytes_per_op", "alloc_bytes_per_op", e2e["alloc_bytes_per_op"], fmt.Sprintf("%d %s", rs.ops, rs.unit))
	c := rs.counted
	row("iters_per_corrected", "iters_per_corrected", e2e["iters_per_corrected"],
		fmt.Sprintf("%d corrected in each client's first %d %s (exact for the seed)", c.Corrected, cfg.countBatches, rs.batchPl))
	row("due_frac", "-", metric{ratio(c.DUE, c.Ops), "ratio"}, fmt.Sprintf("%d DUE of %d %s in the same %s", c.DUE, c.Ops, rs.unit, rs.batchPl))
	row("failed_frac", "attempted/failed", metric{ratio(rs.failed(), rs.ops), "ratio"}, fmt.Sprintf("%d failed of %d attempted", rs.failed(), rs.ops))
}

func printDigest(out io.Writer, rs *runStats) {
	fmt.Fprintf(out, "outcome digest (all %d %s): %s\n", len(rs.batchMs), rs.batchPl, rs.outcome)
	if len(rs.clients[0]) > 0 {
		fmt.Fprintf(out, "outcome digest (client 0, %s 0): %s\n", rs.batch, rs.clients[0][0])
	}
	if len(rs.mismatches) == 0 {
		fmt.Fprintln(out, "outcome checks: OK (ground truth per batch; repeat-seed digests identical)")
	}
	for _, m := range rs.mismatches {
		fmt.Fprintln(out, "outcome check FAILED:", m)
	}
}

func run(cfg config, out io.Writer) (*result, error) {
	// The campaign runner logs progress through slog; keep the output to
	// the tables and the result line.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	runtime.GOMAXPROCS(clientsOf(cfg.workload) * workersOf(cfg.workload))
	ws, setupS, err := setupClients(cfg)
	if err != nil {
		return nil, err
	}

	budget := cfg.budget
	if cfg.trace {
		// Half the budget measures the engine untraced, half the traced
		// mirror; the per-op difference is the tracing overhead.
		budget /= 2
	}
	rs, err := measure(ws, cfg, budget)
	if err != nil {
		return nil, err
	}
	rs.setupS = setupS
	e2e := rs.endToEnd()
	printEndToEnd(out, cfg, rs, e2e)
	printDigest(out, rs)
	res := &result{Attempted: rs.ops, Failed: rs.failed()}
	if !cfg.trace {
		res.Metrics = e2e
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Every client runs its mirror at once, as the clients ran the engine.
	runtime.GC()
	mruns := make([]*mirrorRun, len(ws))
	deadline := time.Now().Add(budget)
	var wg sync.WaitGroup
	for c, w := range ws {
		mruns[c] = &mirrorRun{deadline: deadline, engine: rs.clients[c], tr: newTracer()}
		wg.Add(1)
		go func(w workload, m *mirrorRun) {
			defer wg.Done()
			w.mirror(m)
		}(w, mruns[c])
	}
	wg.Wait()
	m := mruns[0]
	for _, o := range mruns[1:] {
		m.merge(o)
	}
	iso, err := measureIsolation()
	if err != nil {
		return nil, err
	}
	res.Metrics, err = ledger(out, cfg, rs, m, iso)
	if err != nil {
		return nil, err
	}
	res.Attempted += m.ops
	res.Failed += m.outcome.failures() + m.unmatchedOps
	res.Correct = res.Failed == 0
	return res, nil
}

// ledger prints the isolation table and the ledger of the traced run
// and returns the per-layer metrics: the in-workload value from the
// mirror's spans for the metrics inWorkloadMetrics names, and the
// isolation value for the rest.
func ledger(out io.Writer, cfg config, rs *runStats, m *mirrorRun, iso *isolation) (map[string]metric, error) {
	fmt.Fprintf(out, "\n== layer isolation (fixed inputs, seed %d) ==\n", isolationSeed)
	for _, r := range iso.rows {
		fmt.Fprintf(out, "%-36s %14.6g %-5s %s\n", r.name, r.value, r.unit, r.call)
	}

	tr := m.tr
	untraced := rs.laneNsPerOp(cfg.workload)
	traced := float64(m.laneNs) / float64(m.ops)
	names := tr.layers()
	sum := 0.0
	family := map[string]float64{}
	fmt.Fprintf(out, "\n== %s: ledger (traced mirror, %d %s, %d %s) ==\n", cfg.workload, m.batches, rs.batchPl, m.ops, rs.unit)
	fmt.Fprintf(out, "mirror reproduces the engine's outcome digest on %d of %d compared %s\n", m.matched, m.compared, rs.batchPl)
	for _, s := range m.mismatch {
		fmt.Fprintln(out, "  mirror differs:", s)
	}
	fmt.Fprintf(out, "%-34s %10s %12s %12s %7s\n", "layer span", "calls", "ns/call", "ns/op", "share")
	for _, name := range names {
		lt := tr.self[name]
		perOp := float64(lt.SelfNs) / float64(m.ops)
		label := name
		if name == glue {
			label = "(mirror glue, not a layer)"
		} else {
			sum += perOp
			family[strings.SplitN(name, ".", 2)[0]] += perOp
		}
		fmt.Fprintf(out, "%-34s %10d %12.1f %12.1f %6.1f%%\n", label, lt.Calls, float64(lt.SelfNs)/float64(lt.Calls), perOp, 100*perOp/untraced)
	}
	fams := make([]string, 0, len(family))
	for f := range family {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return family[fams[i]] > family[fams[j]] })
	residual := untraced - sum
	overhead := traced/untraced - 1
	fmt.Fprintf(out, "untraced per-op time (engine)      %12.1f ns/%s (lane time: batch time x %d workers)\n",
		untraced, strings.TrimSuffix(rs.unit, "s"), workersOf(cfg.workload))
	fmt.Fprintf(out, "sum of layer self times            %12.1f ns/op\n", sum)
	fmt.Fprintf(out, "scenario.residual_ns.%-13s %12.1f ns/op (%.1f%% of untraced)\n", cfg.workload, residual, 100*residual/untraced)
	fmt.Fprintf(out, "trace_overhead_frac.%-14s %12.4f (traced mirror %.1f ns/op)\n", cfg.workload, overhead, traced)
	for i, f := range fams {
		fmt.Fprintf(out, "layer #%d of %s: %-10s %10.1f ns/op (%.1f%%)\n", i+1, cfg.workload, f, family[f], 100*family[f]/untraced)
	}

	// spans holds every value the mirror's spans give; which of them a
	// workload reports is fixed by inWorkload.
	spans := map[string]float64{}
	set := func(name string, v float64, ok bool) {
		if ok && !math.IsNaN(v) {
			spans[name] = v
		}
	}
	call := func(name, layer string) {
		v, ok := tr.perCall(layer)
		set(name, v, ok)
	}
	for _, g := range []string{"s8", "s16"} {
		call("dram.from_burst_ns."+g, "dram.from_burst."+g)
		call("dram.to_burst_ns."+g, "dram.to_burst."+g)
	}
	call("poly.decode_clean_ns", "poly.decode.clean")
	call("poly.encode_ns", "poly.encode")
	for mdl, k := range modelKeys {
		call("poly.decode_corrected_ns."+k, correctedLayers[mdl])
		call("faults.inject_ns."+k, injectLayers[mdl])
		mt := m.tally.perModel[mdl]
		set("poly.iters."+k, ratio(mt.iterations, mt.corrected), mt.corrected > 0)
	}
	call("rowhammer.mask_ns", "rowhammer.mask")
	for _, name := range []string{"poly-m511", "poly-m1021", "poly-m2005", "poly-m131049"} {
		v, ok := tr.perCall("linecode.new." + name)
		set("linecode.new_s."+name, v/1e9, ok)
	}
	call("telemetry.record_ns", "telemetry.record")
	call("memctl.tick_ns", "memctl.tick")
	perItem := func(name, layer string) {
		v, ok := tr.perItem(layer)
		set(name, v, ok)
	}
	perItem("memctl.observe_ns", "memctl.observe")
	perItem("poly.batch32_ns_per_line", "poly.decode_batch32")
	if cfg.workload == "scrub" {
		set("scrub.ns_per_line", untraced, true)
		rw, ok := tr.perCall("dram.module_write")
		enc, _ := tr.perCall("poly.encode")
		tb, _ := tr.perCall("dram.to_burst.s8")
		set("scrub.rewrite_ns", rw+enc+tb, ok)
		set("scrub.corrected_frac", ratio(rs.outcome.Corrected, rs.outcome.Ops), true)
	}
	useful := ratio(m.tally.corrected, m.tally.iterations)
	if math.IsNaN(useful) {
		useful = 0
	}
	set("poly.useful_ratio", useful, true)
	set("scenario.residual_ns", residual, true)
	set("trace_overhead_frac", overhead, true)

	vals := iso.values()
	units := map[string]string{}
	for _, r := range iso.rows {
		units[r.name] = r.unit
	}
	units["poly.useful_ratio"], units["scenario.residual_ns"], units["trace_overhead_frac"] = "ratio", "ns", "ratio"
	from := map[string]string{}
	for _, name := range inWorkloadMetrics(cfg.workload) {
		v, ok := spans[name]
		if !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s has no in-workload value: the traced run never made that call",
				cfg.workload, name)
		}
		vals[name], from[name] = v, "workload"
	}

	fmt.Fprintf(out, "\n== %s: per-layer metrics ==\n", cfg.workload)
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	metrics := make(map[string]metric, len(keys))
	for _, k := range keys {
		src := from[k]
		if src == "" {
			src = "isolation"
		}
		fmt.Fprintf(out, "%-36s %14.6g %-5s %s\n", k, vals[k], units[k], src)
		metrics[k] = metric{vals[k], units[k]}
	}
	return metrics, nil
}

// inWorkload names, per workload, the per-layer metrics its traced run
// reports from the mirror's spans: the calls that workload makes in
// every batch. Every other per-layer metric is the isolation table's
// value, so a JSON name has one source per workload. A listed call the
// mirror never made is an error, not a silent fallback.
var inWorkload = map[string][]string{
	"polysoak": {"dram.from_burst_ns.s8", "dram.to_burst_ns.s8", "poly.encode_ns", "telemetry.record_ns"},
	"memctlsoak": {"dram.from_burst_ns.s8", "dram.to_burst_ns.s8", "dram.from_burst_ns.s16", "dram.to_burst_ns.s16",
		"poly.decode_clean_ns", "poly.encode_ns", "rowhammer.mask_ns", "linecode.new_s.poly-m2005",
		"linecode.new_s.poly-m131049", "telemetry.record_ns", "memctl.observe_ns", "memctl.tick_ns"},
	"scrub": {"dram.from_burst_ns.s8", "dram.to_burst_ns.s8", "poly.encode_ns", "poly.batch32_ns_per_line",
		"scrub.ns_per_line", "scrub.rewrite_ns", "scrub.corrected_frac"},
}

// inWorkloadMetrics is inWorkload's list plus the metrics every
// workload reports from its own run: MAC checks per corrected decode
// per model, the useful ratio, the residual and the tracing overhead;
// and, where the workload injects faults through the injectors, the
// per-model injection and corrected-decode times.
func inWorkloadMetrics(workload string) []string {
	names := append([]string{"poly.useful_ratio", "scenario.residual_ns", "trace_overhead_frac"}, inWorkload[workload]...)
	for _, k := range modelKeys {
		names = append(names, "poly.iters."+k)
		if workload != "scrub" {
			names = append(names, "faults.inject_ns."+k, "poly.decode_corrected_ns."+k)
		}
	}
	return names
}
