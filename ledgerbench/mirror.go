package main

// The traced run cannot open spans inside the program, so each
// workload has a mirror: the benchmark's own loop that makes the same
// calls into the layers as the engine does for the same seed, with a
// span around every call. The mirror's outcome digests are compared
// with the engine's, batch by batch, so the ledger is known to describe
// the work the engine actually did. The mirror's own glue (RNG draws,
// counters, span bookkeeping) is recorded as the "glue" span and is not
// a layer of the ledger.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"polyecc/internal/campaign"
	"polyecc/internal/dram"
	"polyecc/internal/exp"
	"polyecc/internal/faults"
	"polyecc/internal/linecode"
	"polyecc/internal/memctl"
	"polyecc/internal/poly"
	"polyecc/internal/rowhammer"
	"polyecc/internal/scenario"
	"polyecc/internal/scrub"
	"polyecc/internal/telemetry"
)

const glue = "glue"

// mirrorRun collects one traced mirror run.
type mirrorRun struct {
	deadline time.Time
	engine   []digest // the engine's digests of the same batches

	tr       *tracer
	tally    decodeTally
	ops      int64
	laneNs   int64 // wall time of the mirrored work times its lanes
	batches  int
	compared int
	matched  int
	// unmatchedOps counts the ops of every batch whose mirror digest
	// differs from the engine's; they count as failed, because the
	// ledger then no longer describes the engine's work.
	unmatchedOps int64
	mismatch     []string
	outcome      digest
}

// more reports whether batch i is mirrored: the first always is, the
// rest until the deadline.
func (m *mirrorRun) more(i int) bool { return i == 0 || time.Now().Before(m.deadline) }

// done files one mirrored batch and compares it with the engine's.
func (m *mirrorRun) done(i int, d digest, laneNs int64) {
	m.batches++
	m.ops += d.Ops
	m.laneNs += laneNs
	m.outcome.add(d)
	if i < len(m.engine) {
		m.compared++
		if d.String() == m.engine[i].String() {
			m.matched++
			return
		}
		m.unmatchedOps += m.engine[i].Ops
		if len(m.mismatch) < 3 {
			m.mismatch = append(m.mismatch, fmt.Sprintf("batch %d: mirror %s, engine %s", i, d, m.engine[i]))
		}
	}
}

// merge folds another client's mirror run into m.
func (m *mirrorRun) merge(o *mirrorRun) {
	m.tr.merge(o.tr)
	m.tally.merge(&o.tally)
	m.ops += o.ops
	m.laneNs += o.laneNs
	m.batches += o.batches
	m.compared += o.compared
	m.matched += o.matched
	m.unmatchedOps += o.unmatchedOps
	m.mismatch = append(m.mismatch, o.mismatch...)
	m.outcome.add(o.outcome)
}

// decodeTally counts correction work per fault model.
type decodeTally struct {
	corrected  int64
	iterations int64
	perModel   [poly.NumFaultModels]struct{ corrected, iterations int64 }
}

func (t *decodeTally) add(rep *poly.Report) {
	t.iterations += int64(rep.Iterations)
	if rep.Status != poly.StatusCorrected {
		return
	}
	t.corrected++
	t.perModel[rep.Model].corrected++
	t.perModel[rep.Model].iterations += int64(rep.Iterations)
}

func (t *decodeTally) merge(o *decodeTally) {
	t.corrected += o.corrected
	t.iterations += o.iterations
	for m := range o.perModel {
		t.perModel[m].corrected += o.perModel[m].corrected
		t.perModel[m].iterations += o.perModel[m].iterations
	}
}

// decodeLayer names a finished decode's span by its outcome.
func decodeLayer(rep *poly.Report) string {
	switch rep.Status {
	case poly.StatusClean:
		return "poly.decode.clean"
	case poly.StatusCorrected:
		return correctedLayers[rep.Model]
	}
	return "poly.decode.due"
}

// wireLayers names the burst<->line transpose spans of a geometry.
func wireLayers(g dram.WordGeometry) (from, to string) {
	return fmt.Sprintf("dram.from_burst.s%d", g.SymbolBits), fmt.Sprintf("dram.to_burst.s%d", g.SymbolBits)
}

// --- polysoak ---------------------------------------------------------------

// polyWorker is one campaign worker's mirror state, built like the
// engine's per-worker decode state.
type polyWorker struct {
	tr        *tracer
	tally     decodeTally
	code      *poly.Code
	rec       *poly.AnomalyRecorder
	scratch   *poly.Scratch
	data      [poly.LineBytes]byte
	clean     dram.Burst
	injectors []faults.Injector
}

func newPolyWorker(code *poly.Code, seed int64) *polyWorker {
	w := &polyWorker{tr: newTracer(), rec: poly.NewAnomalyRecorder(nil, "polysoak", code)}
	w.code = w.rec.Code()
	w.scratch = w.code.NewScratch()
	rand.New(rand.NewSource(seed)).Read(w.data[:])
	w.tr.begin()
	enc := w.code.EncodeLineScratch(&w.data, w.scratch)
	w.tr.end("poly.encode", 1)
	w.tr.begin()
	w.clean = w.code.ToBurst(enc)
	w.tr.end("dram.to_burst.s8", 1)
	w.injectors = faults.InModel(dram.WordGeometry{SymbolBits: code.Geometry().SymbolBits})
	return w
}

func (w *polyWorker) trial(t *campaign.Trial) {
	tr := w.tr
	tr.begin()
	r := t.RNG
	burst := w.clean
	inj := w.injectors[r.Intn(len(w.injectors))]
	tr.begin()
	inj.Inject(r, &burst)
	tr.end(injectLayers[modelOf(inj.Name())], 1)
	tr.begin()
	rl := w.code.FromBurstScratch(&burst, w.scratch)
	tr.end("dram.from_burst.s8", 1)
	tr.begin()
	got, rep := w.code.DecodeLineScratch(rl, w.scratch)
	tr.end(decodeLayer(&rep), 1)
	w.tally.add(&rep)
	t.Add("iterations", int64(rep.Iterations))
	sdc := false
	switch rep.Status {
	case poly.StatusClean:
		t.Record("clean")
	case poly.StatusCorrected:
		t.Record("corrected")
		t.Record("model." + rep.Model.String())
		if got != w.data {
			sdc = true
			t.Record("sdc")
		}
	case poly.StatusUncorrectable:
		t.Record("due")
	}
	tr.begin()
	w.rec.RecordDecode(rl, &rep, telemetry.Event{Worker: t.Worker, Index: t.Index}, inj.Name(), sdc)
	tr.end("telemetry.record", 1)
	tr.end(glue, 0)
}

func (w *polysoak) mirror(m *mirrorRun) {
	code := w.code.(linecode.Poly).C.WithMaxIterations(engineMaxIterations)
	for i := 0; m.more(i); i++ {
		seed := batchSeed(w.seed, i)
		var mu sync.Mutex
		var workers []*polyWorker
		cfg := campaign.Config{
			Name: "polysoak", Trials: polyBatch, Seed: seed, Workers: polyWorkers,
			Metrics: &scenario.Campaign().Runner,
			WorkerState: func() any {
				pw := newPolyWorker(code, seed)
				mu.Lock()
				workers = append(workers, pw)
				mu.Unlock()
				return pw
			},
		}
		start := time.Now()
		// scenario.Run validates the spec first, on one goroutine while
		// the other lane waits.
		verr := presetSpec("polysoak", seed, polyBatch).Validate()
		validateNs := int64(time.Since(start)) * polyWorkers
		m.tr.add("scenario.validate", 1, validateNs)
		res, err := campaign.Run(context.Background(), cfg, func(t *campaign.Trial) { t.Local.(*polyWorker).trial(t) })
		lane := int64(time.Since(start)) * polyWorkers
		// The runner's lanes are the campaign layer: whatever lane time no
		// span of a worker covers is spent in campaign.Run itself.
		covered := int64(0)
		for _, pw := range workers {
			for _, lt := range pw.tr.self {
				covered += lt.SelfNs
			}
			m.tr.merge(pw.tr)
			m.tally.merge(&pw.tally)
		}
		m.tr.add("campaign.runner", int64(res.Completed), lane-covered-validateNs)
		d := campaignDigest(res)
		if verr != nil || err != nil {
			d.Errors++
		}
		m.done(i, d, lane)
	}
}

// --- memctlsoak -------------------------------------------------------------

// virtualT0 is the scenario engine's virtual epoch.
const virtualT0 = int64(1_700_000_000_000_000_000)

// mirrorCodec is one codec of the mirror's migration ladder.
type mirrorCodec struct {
	base      *poly.Code
	rec       *poly.AnomalyRecorder
	scratch   *poly.Scratch
	orderKey  string
	data      [poly.LineBytes]byte
	clean     dram.Burst
	g         dram.WordGeometry
	injectors []faults.Injector
	fromLayer string
	toLayer   string
}

// memctlMirror replays one memctlsoak batch the way the sequential
// engine runs it.
type memctlMirror struct {
	s      *scenario.Spec
	tr     *tracer
	tally  *decodeTally
	j      *telemetry.Journal
	ctl    *memctl.Controller
	sub    *telemetry.Subscription
	codecs map[string]*mirrorCodec
	evbuf  []telemetry.Event
}

func (mm *memctlMirror) query(f func()) {
	mm.tr.begin()
	f()
	mm.tr.end("memctl.query", 1)
}

func (mm *memctlMirror) drain() {
	for {
		mm.tr.begin()
		mm.evbuf = mm.sub.Poll(mm.evbuf[:0])
		mm.tr.end("telemetry.poll", 1)
		if len(mm.evbuf) == 0 {
			return
		}
		mm.tr.begin()
		mm.ctl.ObserveAll(mm.evbuf)
		mm.tr.end("memctl.observe", int64(len(mm.evbuf)))
	}
}

func (mm *memctlMirror) tick(now int64) {
	mm.tr.begin()
	mm.ctl.Tick(now)
	mm.tr.end("memctl.tick", 1)
}

// refresh applies the controller's decided trial order to a codec.
func (mm *memctlMirror) refresh(cs *mirrorCodec) error {
	var names []string
	mm.query(func() { names = mm.ctl.ModelNames() })
	key := strings.Join(names, ",")
	if cs.rec != nil && key == cs.orderKey {
		return nil
	}
	cs.orderKey = key
	code := cs.base
	var decided []poly.FaultModel
	mm.query(func() { decided = mm.ctl.Models() })
	if len(decided) > 0 {
		have := code.Models()
		in := func(list []poly.FaultModel, m poly.FaultModel) bool {
			for _, x := range list {
				if x == m {
					return true
				}
			}
			return false
		}
		order := make([]poly.FaultModel, 0, len(have))
		for _, m := range decided {
			if in(have, m) {
				order = append(order, m)
			}
		}
		for _, m := range have {
			if !in(order, m) {
				order = append(order, m)
			}
		}
		mm.tr.begin()
		reordered, err := code.WithModels(order)
		mm.tr.end("poly.with_models", 1)
		if err != nil {
			return err
		}
		code = reordered
	}
	cs.rec = poly.NewAnomalyRecorder(mm.j, mm.s.Name, code)
	cs.scratch = cs.rec.Code().NewScratch()
	mm.tr.begin()
	enc := cs.rec.Code().EncodeLineScratch(&cs.data, cs.scratch)
	mm.tr.end("poly.encode", 1)
	mm.tr.begin()
	cs.clean = cs.rec.Code().ToBurst(enc)
	mm.tr.end(cs.toLayer, 1)
	return nil
}

func (mm *memctlMirror) codecAt(line int) (*mirrorCodec, error) {
	var name string
	mm.query(func() { name = mm.ctl.CodecName(line / mm.s.Memctl.RegionLines) })
	if cs, ok := mm.codecs[name]; ok {
		return cs, mm.refresh(cs)
	}
	mm.tr.begin()
	lc, err := linecode.New(name)
	mm.tr.end("linecode.new."+name, 1)
	if err != nil {
		return nil, err
	}
	pl, ok := lc.(linecode.Poly)
	if !ok {
		return nil, fmt.Errorf("memctlsoak mirror: %s is not a Polymorphic code", name)
	}
	cs := &mirrorCodec{base: pl.C.WithMaxIterations(engineMaxIterations)}
	cs.g = dram.WordGeometry{SymbolBits: cs.base.Geometry().SymbolBits}
	cs.fromLayer, cs.toLayer = wireLayers(cs.g)
	cs.injectors = faults.InModel(cs.g)
	rand.New(rand.NewSource(mm.s.Seed)).Read(cs.data[:])
	mm.codecs[name] = cs
	return cs, mm.refresh(cs)
}

// decode runs one access through its codec, as the engine does.
func (mm *memctlMirror) decode(cs *mirrorCodec, burst *dram.Burst, line int, now int64, injected string, d *digest) {
	code := cs.rec.Code()
	mm.tr.begin()
	rl := code.FromBurstScratch(burst, cs.scratch)
	mm.tr.end(cs.fromLayer, 1)
	mm.tr.begin()
	got, rep := code.DecodeLineScratch(rl, cs.scratch)
	mm.tr.end(decodeLayer(&rep), 1)
	mm.tally.add(&rep)
	d.Iterations += int64(rep.Iterations)
	sdc := false
	switch rep.Status {
	case poly.StatusClean:
		d.Clean++
	case poly.StatusCorrected:
		d.Corrected++
		d.PerModel[rep.Model]++
		if got != cs.data {
			sdc = true
			d.SDC++
		}
	case poly.StatusUncorrectable:
		d.DUE++
	}
	mm.tr.begin()
	cs.rec.RecordDecode(rl, &rep, telemetry.Event{Index: line, TimeNs: now}, injected, sdc)
	mm.tr.end("telemetry.record", 1)
	mm.drain()
}

func phaseBounds(n int, phases []scenario.Phase) []int {
	out := make([]int, len(phases))
	cum, prev := 0.0, 0
	for i, ph := range phases {
		cum += ph.Fraction
		b := int(cum*float64(n) + 0.5)
		if b < prev {
			b = prev
		}
		if b > n {
			b = n
		}
		out[i], prev = b, b
	}
	out[len(out)-1] = n
	return out
}

// run mirrors one memctlsoak batch: the preset's two clients (a hammer
// on the seed's aggressor row and a sparse in-model background) over
// its three phases, through the controller.
func (mm *memctlMirror) run() (digest, error) {
	s := mm.s
	d := digest{Ops: int64(s.Trials)}
	mm.tr.begin()
	err := s.Validate()
	mm.tr.end("scenario.validate", 1)
	if err != nil {
		return d, err
	}
	mm.tr.begin()
	mm.j = telemetry.NewJournal(4096)
	ctl, err := memctl.New(exp.MemctlSoakConfig(s.Code, mm.j))
	mm.tr.end("memctl.new", 1)
	if err != nil {
		return d, err
	}
	mm.ctl = ctl
	mm.sub = mm.j.Subscribe(16384)
	defer mm.sub.Close()
	mm.codecs = map[string]*mirrorCodec{}

	hammer, background := &s.Clients[0], &s.Clients[1]
	aggr := 1 + rand.New(rand.NewSource(s.Seed)).Intn(s.Lines/s.RowLines-2)
	rng := rand.New(rand.NewSource(s.Seed))
	now := virtualT0
	k := 0
	for pi, end := range phaseBounds(s.Trials, s.Phases) {
		storm := len(s.Phases[pi].Clients) > 1
		for ; k < end; k++ {
			mm.tr.begin()
			c := background
			if storm && rng.Float64() < hammer.Fraction {
				c = hammer
			}
			now += s.TickNs
			var line int
			fire := true
			if c == hammer {
				victim := aggr - 1
				if rng.Intn(2) == 1 {
					victim = aggr + 1
				}
				line = victim*s.RowLines + rng.Intn(s.RowLines)
			} else {
				line = rng.Intn(s.Lines)
				fire = rng.Float64() < c.Faults.Rate
			}
			var blocked bool
			mm.query(func() { blocked = mm.ctl.Blocked(line) })
			if blocked {
				d.Fenced++
				mm.tick(now)
				mm.drain()
				mm.query(mm.healthState)
				mm.tr.end(glue, 0)
				continue
			}
			cs, err := mm.codecAt(line)
			if err != nil {
				return d, err
			}
			burst := cs.clean
			injected := ""
			if fire && c == hammer {
				mm.tr.begin()
				mask := rowhammer.New(rng.Int63(), cs.g).Next()
				mm.tr.end("rowhammer.mask", 1)
				burst.Xor(&mask)
				injected = "rowhammer"
			} else if fire {
				inj := cs.injectors[rng.Intn(len(cs.injectors))]
				mm.tr.begin()
				inj.Inject(rng, &burst)
				mm.tr.end(injectLayers[modelOf(inj.Name())], 1)
				injected = inj.Name()
			}
			mm.tick(now)
			mm.decode(cs, &burst, line, now, injected, &d)
			mm.query(mm.healthState)
			mm.tr.end(glue, 0)
		}
	}
	return d, nil
}

// healthState makes the per-access state reads the engine's health
// tracking makes.
func (mm *memctlMirror) healthState() {
	_ = mm.ctl.Health().State()
	_ = mm.ctl.ScrubLevel()
}

func (w *memctlsoak) mirror(m *mirrorRun) {
	for i := 0; m.more(i); i++ {
		mm := &memctlMirror{s: presetSpec("memctlsoak", batchSeed(w.seed, i), memctlBatch), tr: m.tr, tally: &m.tally}
		start := time.Now()
		d, err := mm.run()
		lane := int64(time.Since(start))
		if err != nil {
			d.Errors++
		}
		m.done(i, d, lane)
	}
}

// --- scrub ------------------------------------------------------------------

// scrubMirror is the batched sweep of scrub.Scrubber, driven from here.
type scrubMirror struct {
	code    *poly.Code
	mod     *dram.Module
	tr      *tracer
	tally   *decodeTally
	scratch *poly.Scratch
	bursts  []dram.Burst
	lines   []poly.Line
	results []poly.Result
	buf     [poly.LineBytes]byte
}

const scrubBatch = 32 // the scrubber's lines per DecodeLines batch

func (sm *scrubMirror) sweep() (scrub.Stats, []scrub.Event) {
	tr := sm.tr
	st := scrub.Stats{PerModel: make(map[poly.FaultModel]int)}
	var events []scrub.Event
	n := sm.mod.Lines()
	for lo := 0; lo < n; lo += scrubBatch {
		hi := min(lo+scrubBatch, n)
		for j := 0; j < hi-lo; j++ {
			tr.begin()
			sm.bursts[j] = sm.mod.ReadBurst(lo + j)
			tr.end("dram.module_read", 1)
			tr.begin()
			sm.lines[j] = sm.code.FromBurstInto(sm.lines[j].Words, &sm.bursts[j])
			tr.end("dram.from_burst.s8", 1)
		}
		tr.begin()
		sm.results = sm.code.DecodeLines(sm.results[:0], sm.lines[:hi-lo], sm.scratch)
		tr.end("poly.decode_batch32", int64(hi-lo))
		for j := range sm.results {
			res := &sm.results[j]
			if res.Err != nil {
				res.Report.Status = poly.StatusUncorrectable
			}
			sm.tally.add(&res.Report)
			switch res.Report.Status {
			case poly.StatusClean:
				st.Clean++
			case poly.StatusCorrected:
				st.Corrected++
				st.PerModel[res.Report.Model]++
				events = append(events, scrub.Event{Line: lo + j, Report: res.Report})
				sm.buf = res.Data
				tr.begin()
				enc := sm.code.EncodeLineScratch(&sm.buf, sm.scratch)
				tr.end("poly.encode", 1)
				tr.begin()
				b := sm.code.ToBurst(enc)
				tr.end("dram.to_burst.s8", 1)
				tr.begin()
				sm.mod.WriteBurst(lo+j, b)
				tr.end("dram.module_write", 1)
			case poly.StatusUncorrectable:
				st.DUE++
				events = append(events, scrub.Event{Line: lo + j, Report: res.Report})
			}
		}
	}
	return st, events
}

func (w *scrubWorkload) mirror(m *mirrorRun) {
	mod, clean := fillModule(w.code, w.seed)
	sm := &scrubMirror{
		code: w.code, mod: mod, tr: m.tr, tally: &m.tally, scratch: w.code.NewScratch(),
		bursts: make([]dram.Burst, scrubBatch), lines: make([]poly.Line, scrubBatch),
		results: make([]poly.Result, 0, scrubBatch),
	}
	inj := newScrubInjector(w.seed, dram.WordGeometry{SymbolBits: w.code.Geometry().SymbolBits})
	for i := 0; m.more(i); i++ {
		faulted := inj.inject(mod)
		start := time.Now()
		m.tr.begin()
		st, events := sm.sweep()
		m.tr.end(glue, 0)
		lane := int64(time.Since(start))
		m.done(i, checkSweep(mod, clean, faulted, st.Clean, events), lane)
	}
}
