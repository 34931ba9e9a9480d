package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"

	"polyecc/internal/campaign"
	"polyecc/internal/dram"
	"polyecc/internal/exp"
	"polyecc/internal/faults"
	"polyecc/internal/linecode"
	"polyecc/internal/memctl"
	"polyecc/internal/poly"
	"polyecc/internal/scenario"
	"polyecc/internal/scrub"
	"polyecc/internal/telemetry"
)

// workload is one consumer-level path the benchmark drives. The batch loop
// times setup and run; prepare and verify are the untimed halves of a
// batch that make its inputs and check its outputs against ground
// truth.
type workload interface {
	// setup builds everything the first batch needs, from the seed.
	setup(seed int64) error
	// prepare makes batch i's inputs.
	prepare(i int)
	// run is the timed work of batch i, through the public entry point.
	run(i int) error
	// verify checks batch i's outputs and returns its digest.
	verify(i int) digest
	// recheck repeats batch 0 and reports every digest that differs
	// from the first execution.
	recheck() []string
	// mirror re-drives batches from the benchmark's own loop with a
	// span around every call into a layer, until budget batches or the
	// deadline; see mirror.go.
	mirror(m *mirrorRun)
}

// Batch sizes. Each is the unit one timing sample covers: one
// scenario.Run for the soaks, one patrol sweep for scrub.
const (
	// polyBatch trials make the codec construction every scenario.Run
	// pays (Validate builds the named code) under a tenth of a batch.
	polyBatch = 16384
	// memctlBatch trials make the in-run codec construction (Validate,
	// poly-m2005 at the first access, poly-m131049 at migration) about a
	// seventh of a batch, while the three-phase storm still heals. The
	// map-heavy construction slowed by up to 2x with the host's load, far
	// more than the trials, so a larger share made the batch time swing.
	memctlBatch = 600000
	// scrubLines is the patrolled module size and scrubFaults the lines
	// freshly faulted before each sweep (3%).
	scrubLines  = 1024
	scrubFaults = 32
	// polyWorkers is the parallel campaign executor's worker count.
	polyWorkers = 2
	// engineMaxIterations is the scenario engine's per-decode N_max bound;
	// the mirrors decode under the same cap.
	engineMaxIterations = 20000
)

func newWorkload(name string) (workload, error) {
	switch name {
	case "polysoak":
		return &polysoak{}, nil
	case "memctlsoak":
		return &memctlsoak{}, nil
	case "scrub":
		return &scrubWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (one of: %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"polysoak", "memctlsoak", "scrub"}

func presetSpec(name string, seed int64, trials int) *scenario.Spec {
	p, ok := scenario.LookupPreset(name)
	if !ok {
		panic("scenario preset " + name + " is not registered")
	}
	s := p.Build()
	s.Seed = seed
	s.SetBudget(trials)
	return s
}

// countsDigest reads the per-model and iteration counters every decode
// scenario keeps in its campaign result.
func countsDigest(counts map[string]int64) digest {
	d := digest{Iterations: counts["iterations"]}
	for label, n := range counts {
		if m, ok := strings.CutPrefix(label, "model."); ok {
			d.PerModel[modelOf(m)] = n
		}
	}
	return d
}

// --- polysoak ---------------------------------------------------------------

// polysoak runs the polysoak preset on poly-m2005 through the parallel
// campaign executor: every trial injects one of the five in-model
// faults and decodes it.
type polysoak struct {
	seed    int64
	code    linecode.Code
	pending digest
	digests []digest
}

func (w *polysoak) setup(seed int64) error {
	w.seed = seed
	code, err := linecode.New("poly-m2005")
	w.code = code
	return err
}

func (w *polysoak) prepare(int) {}

func (w *polysoak) runBatch(i, workers int) (digest, error) {
	s := presetSpec("polysoak", batchSeed(w.seed, i), polyBatch)
	res, err := scenario.Run(context.Background(), s, scenario.Opts{Workers: workers, Code: w.code})
	if err != nil {
		return digest{}, err
	}
	return campaignDigest(res.Campaign), nil
}

// campaignDigest reads the outcome labels a decode campaign's trials
// record.
func campaignDigest(res campaign.Result) digest {
	d := countsDigest(res.Counts)
	d.Ops = int64(res.Completed)
	d.Clean, d.Corrected, d.DUE, d.SDC = res.Count("clean"), res.Count("corrected"), res.Count("due"), res.Count("sdc")
	d.Panics = res.Panics
	if res.Partial || res.Completed != res.Trials {
		d.Errors++
	}
	return d
}

func (w *polysoak) run(i int) (err error) {
	w.pending, err = w.runBatch(i, polyWorkers)
	return err
}

func (w *polysoak) verify(int) digest {
	w.digests = append(w.digests, w.pending)
	return w.pending
}

// recheck holds the engine's contract: a seed's digest is the same on
// a second run and at one worker as at two.
func (w *polysoak) recheck() []string {
	if len(w.digests) == 0 {
		return nil
	}
	var bad []string
	for _, workers := range []int{polyWorkers, 1} {
		d, err := w.runBatch(0, workers)
		if err != nil || d.String() != w.digests[0].String() {
			bad = append(bad, fmt.Sprintf("polysoak batch 0 at %d workers: %s, first run %s (err %v)",
				workers, d, w.digests[0], err))
		}
	}
	return bad
}

// --- memctlsoak -------------------------------------------------------------

// memctlsoak runs the memctlsoak preset: the three-phase rowhammer storm
// on the sequential virtual-clock executor, closed through the
// self-healing controller, which the journal feeds.
type memctlsoak struct {
	seed    int64
	pending *scenario.Result
	first   *scenario.SeqResult
}

func (w *memctlsoak) setup(seed int64) error {
	w.seed = seed
	// Set-up reaches the first trial: the controller, its journal, and
	// the poly-m2005 codec the run builds at its first access.
	_, err := w.runBatch(seed, 1)
	return err
}

func (w *memctlsoak) prepare(int) {}

func (w *memctlsoak) runBatch(seed int64, trials int) (*scenario.Result, error) {
	s := presetSpec("memctlsoak", seed, trials)
	j := telemetry.NewJournal(4096)
	ctl, err := memctl.New(exp.MemctlSoakConfig(s.Code, j))
	if err != nil {
		return nil, err
	}
	return scenario.Run(context.Background(), s, scenario.Opts{Journal: j, Controller: ctl})
}

func (w *memctlsoak) run(i int) (err error) {
	w.pending, err = w.runBatch(batchSeed(w.seed, i), memctlBatch)
	return err
}

func seqDigest(res *scenario.Result) digest {
	d := countsDigest(res.Campaign.Counts)
	for _, ph := range res.Seq.Phases {
		d.Ops += int64(ph.Trials)
		d.Clean += int64(ph.Clean)
		d.Corrected += int64(ph.Corrected)
		d.DUE += int64(ph.DUE)
		d.SDC += int64(ph.SDC)
		d.Fenced += int64(ph.Blocked)
	}
	return d
}

func (w *memctlsoak) verify(i int) digest {
	res := w.pending
	d := seqDigest(res)
	seq := res.Seq
	// The end state is part of the outcome: the storm must have been
	// healed, and every access decoded or fenced.
	if !seq.Healed || seq.Partial || seq.Completed != seq.Trials ||
		d.Clean+d.Corrected+d.DUE+d.Fenced != d.Ops {
		d.Errors++
	}
	if i == 0 {
		w.first = seq
	}
	return d
}

// recheck repeats batch 0: the whole trajectory, action counts
// included, is a pure function of the seed.
func (w *memctlsoak) recheck() []string {
	if w.first == nil {
		return nil
	}
	res, err := w.runBatch(batchSeed(w.seed, 0), memctlBatch)
	if err != nil {
		return []string{fmt.Sprintf("memctlsoak batch 0 repeat: %v", err)}
	}
	if !reflect.DeepEqual(res.Seq, w.first) {
		return []string{fmt.Sprintf("memctlsoak batch 0 repeat: actions %v healed=%v, first run actions %v healed=%v",
			res.Seq.Actions, res.Seq.Healed, w.first.Actions, w.first.Healed)}
	}
	return nil
}

// --- scrub ------------------------------------------------------------------

// scrubWorkload patrols a 1024-line module through scrub.Scrubber.Sweep
// with corrected lines written back. Before each sweep, outside the
// timed call, fresh in-model faults land on a few percent of the
// lines; the module's clean bursts are the ground truth.
type scrubWorkload struct {
	seed     int64
	code     *poly.Code
	mod      *dram.Module
	clean    []dram.Burst
	scrubber *scrub.Scrubber
	inj      *scrubInjector
	faulted  []int
	st       scrub.Stats
	events   []scrub.Event
	digests  []digest
}

// scrubInjector draws each sweep's faulted lines and faults from the
// seed, so the mirror and a repeat see the same fault stream.
type scrubInjector struct {
	r         *rand.Rand
	injectors []faults.Injector
	lines     []int // a permutation of the module's lines
}

func newScrubInjector(seed int64, g dram.WordGeometry) *scrubInjector {
	return &scrubInjector{r: rand.New(rand.NewSource(seed ^ 0x5c7b)), injectors: faults.InModel(g)}
}

// inject faults scrubFaults distinct lines of mod and returns them; the
// slice is valid until the next call.
func (in *scrubInjector) inject(mod *dram.Module) []int {
	if in.lines == nil {
		in.lines = make([]int, mod.Lines())
		for i := range in.lines {
			in.lines[i] = i
		}
	}
	// A partial Fisher-Yates shuffle draws the lines without replacement.
	for k := 0; k < scrubFaults; k++ {
		j := k + in.r.Intn(len(in.lines)-k)
		in.lines[k], in.lines[j] = in.lines[j], in.lines[k]
	}
	faulted := in.lines[:scrubFaults]
	for _, line := range faulted {
		b := mod.ReadBurst(line)
		in.injectors[in.r.Intn(len(in.injectors))].Inject(in.r, &b)
		mod.WriteBurst(line, b)
	}
	return faulted
}

// fillModule encodes seeded random data into every line of a new module
// and returns it with the clean bursts.
func fillModule(code *poly.Code, seed int64) (*dram.Module, []dram.Burst) {
	r := rand.New(rand.NewSource(seed))
	mod := dram.NewModule(scrubLines)
	clean := make([]dram.Burst, scrubLines)
	s := code.NewScratch()
	var data [poly.LineBytes]byte
	for i := range clean {
		r.Read(data[:])
		clean[i] = code.ToBurst(code.EncodeLineScratch(&data, s))
		mod.WriteBurst(i, clean[i])
	}
	return mod, clean
}

func (w *scrubWorkload) setup(seed int64) error {
	w.seed = seed
	lc, err := linecode.New("poly-m2005")
	if err != nil {
		return err
	}
	w.code = lc.(linecode.Poly).C
	w.mod, w.clean = fillModule(w.code, seed)
	w.scrubber, err = scrub.New(w.code, w.mod, scrub.DefaultPolicy())
	w.inj = newScrubInjector(seed, dram.WordGeometry{SymbolBits: w.code.Geometry().SymbolBits})
	w.digests = nil
	return err
}

func (w *scrubWorkload) prepare(int) { w.faulted = w.inj.inject(w.mod) }

func (w *scrubWorkload) run(int) error {
	w.st, w.events = w.scrubber.Sweep()
	return nil
}

func (w *scrubWorkload) verify(int) digest {
	d := checkSweep(w.mod, w.clean, w.faulted, w.st.Clean, w.events)
	w.digests = append(w.digests, d)
	return d
}

// checkSweep holds one sweep to ground truth: every faulted line is
// reported, a corrected line is back to its clean burst, a DUE line is
// left alone (and restored here, as a mirror re-provision would), and
// no untouched line is reported.
func checkSweep(mod *dram.Module, clean []dram.Burst, faulted []int, cleanCount int, events []scrub.Event) digest {
	d := digest{Ops: int64(mod.Lines()), Clean: int64(cleanCount)}
	var reported [scrubFaults]bool
	for _, ev := range events {
		k := slices.Index(faulted, ev.Line)
		if k < 0 || reported[k] {
			d.Errors++
			continue
		}
		reported[k] = true
		d.Iterations += int64(ev.Report.Iterations)
		switch ev.Report.Status {
		case poly.StatusCorrected:
			d.Corrected++
			d.PerModel[ev.Report.Model]++
			if mod.ReadBurst(ev.Line) != clean[ev.Line] {
				d.SDC++
			}
		case poly.StatusUncorrectable:
			d.DUE++
			mod.WriteBurst(ev.Line, clean[ev.Line])
		}
	}
	// A faulted line the sweep passed as clean is silent corruption.
	for k, line := range faulted {
		if !reported[k] {
			d.SDC++
			mod.WriteBurst(line, clean[line])
		}
	}
	if d.Clean+d.Corrected+d.DUE != d.Ops {
		d.Errors++
	}
	return d
}

// recheck replays sweep 0 on a fresh module built from the same seed.
func (w *scrubWorkload) recheck() []string {
	if len(w.digests) == 0 {
		return nil
	}
	again := &scrubWorkload{}
	if err := again.setup(w.seed); err != nil {
		return []string{fmt.Sprintf("scrub repeat set-up: %v", err)}
	}
	again.prepare(0)
	if err := again.run(0); err != nil {
		return []string{fmt.Sprintf("scrub repeat sweep 0: %v", err)}
	}
	if d := again.verify(0); d.String() != w.digests[0].String() {
		return []string{fmt.Sprintf("scrub sweep 0 repeat: %s, first run %s", d, w.digests[0])}
	}
	return nil
}
