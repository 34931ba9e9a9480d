package scenario

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"polyecc/internal/campaign"
	"polyecc/internal/dram"
	"polyecc/internal/faults"
	"polyecc/internal/linecode"
	"polyecc/internal/poly"
	"polyecc/internal/rowhammer"
	"polyecc/internal/telemetry"
)

// Soak geometry shared by the storm presets and the health engine: the
// line address space the storm soaks hammer, and the lines per DRAM
// row (matching the health engine's default RowLines so the signature
// classifier sees the same row arithmetic).
const (
	StormLines    = 1024
	StormRowLines = 8
)

// StormShare is the storm presets' hammer-client traffic fraction; the
// rest is uniform background in-model faults, the noise floor the
// health engine's spatial classifier must see through.
const StormShare = 0.9

// virtualT0 is the fixed virtual epoch scenarios with a tick run from
// (2023-11-14T22:13:20Z) — the same epoch as the self-healing soak, so
// recorded journals line up across scenario kinds.
const virtualT0 = int64(1_700_000_000_000_000_000)

// Self-healing soak cadence: the virtual time per trial (2ms, i.e. 500
// trials/sec of simulated traffic) and the per-trial probability of a
// background in-model fault outside the storm — ~2 errors/sec of
// virtual time, burning the corrected-rate SLO budget at exactly 1x, so
// only the storm moves the health state machine.
const (
	MemctlTickNs      = 2_000_000
	MemctlBackgroundP = 0.004
)

// decodeMaxIterations is the N_max bound that keeps worst-case DEC
// correction trials sane, shared by every decode scenario.
const decodeMaxIterations = 20000

// Result is one executed scenario.
type Result struct {
	// Spec is the validated spec the run executed (budget and defaults
	// resolved).
	Spec *Spec
	// Campaign is the underlying engine result: outcome label counts,
	// completion, partial/panic bookkeeping. Sequential scenarios fill
	// it with the Seq result's aggregate counts, so reports and the
	// -summary document have one shape for every kind.
	Campaign campaign.Result
	// Seq carries the per-phase trajectory of a sequential run.
	Seq *SeqResult
	// Baselines maps an inference client to its clean accuracy.
	Baselines map[string]float64
	// AggressorRow is the seed-derived hammered row of a hotrow
	// scenario, -1 when no client hammers.
	AggressorRow int
	// Schedule is the injection schedule a replay scenario executed.
	Schedule []ReplayStep
	// CodeLabel is the display name of the decoded scheme
	// ("Polymorphic(M=2005) (M=2005)"-style), decode/replay kinds only.
	CodeLabel string
	// Latency is the run's latency digest, nil unless latency recording
	// was enabled (Opts.Latency or the spec's latency stanza).
	Latency *LatencyDigest `json:",omitempty"`
}

// Run executes a validated spec. This is the one engine behind every
// campaign: the Figure 4/5 presets, the soaks, replays, and any
// user-authored -spec file all flow through here, so workers/timeout/
// checkpoint/journal wiring exists exactly once (Opts).
func Run(ctx context.Context, s *Spec, opts Opts) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Kind != KindReplay && s.Trials <= 0 {
		return nil, fmt.Errorf("scenario %q: a positive trial budget is required (set trials, or -n on the command line)", s.Name)
	}
	switch {
	case s.Kind == KindReplay:
		return runReplay(ctx, s, opts)
	case s.Kind == KindPrograms:
		return runPrograms(ctx, s, opts)
	case s.Kind == KindInference:
		return runInference(ctx, s, opts)
	case s.Sequential():
		return runSeq(ctx, s, opts)
	default:
		return runDecode(ctx, s, opts)
	}
}

// --- spec compilation -------------------------------------------------------

// phaseSpan is one compiled phase: a contiguous trial-index span with
// its active client subset and their cumulative selection fractions.
type phaseSpan struct {
	name   string
	start  int
	end    int
	active []int     // client indices, phase order
	cum    []float64 // cumulative renormalized fractions over active
	hammer bool      // any active client injects rowhammer faults
}

// clientPlan is one compiled client: epoch switch points resolved to
// trial indices.
type clientPlan struct {
	c          *Client
	envSwitch  []int       // trial index each successive env takes over at
	envs       []*FaultEnv // envs[0] = base, envs[i] from envSwitch[i-1]
	burstEvery int         // gamma arrivals per burst
}

// plan is a spec compiled against its trial budget: every fraction
// resolved to exact indices so both engines (parallel campaign and
// sequential loop) walk identical schedules.
type plan struct {
	spec    *Spec
	clients []clientPlan
	phases  []phaseSpan
	blocks  []int // block-selection client boundaries over the budget
	aggr    int   // seed-derived aggressor row, -1 when unused
	models  []string
}

func newPlan(s *Spec) *plan {
	p := &plan{spec: s, aggr: -1}
	fr := clientFractions(s.Clients)
	p.blocks = boundaries(s.Trials, fr)

	seen := map[string]bool{}
	hammerClient := make([]bool, len(s.Clients))
	for i := range s.Clients {
		c := &s.Clients[i]
		cp := clientPlan{c: c, envs: []*FaultEnv{c.Faults}, burstEvery: 8}
		if c.Arrival != nil && c.Arrival.Burst > 0 {
			cp.burstEvery = c.Arrival.Burst
		}
		for _, e := range c.Epochs {
			cp.envSwitch = append(cp.envSwitch, int(math.Round(e.From*float64(s.Trials))))
			cp.envs = append(cp.envs, e.Faults)
		}
		for _, env := range cp.envs {
			if env == nil {
				continue
			}
			if env.Kind == "rowhammer" {
				hammerClient[i] = true
			}
			if env.Kind == "model" && !seen[env.Model] {
				seen[env.Model] = true
				p.models = append(p.models, env.Model)
			}
		}
		if c.Access != nil && c.Access.Pattern == "hotrow" {
			if c.Access.Row > 0 {
				p.aggr = c.Access.Row
			} else if p.aggr < 0 {
				// The aggressor row comes from the scenario seed alone, so
				// every run (and every resume, at any worker count) hammers
				// the same rows.
				rows := s.Lines / s.RowLines
				p.aggr = 1 + rand.New(rand.NewSource(s.Seed)).Intn(rows-2)
			}
		}
		p.clients = append(p.clients, cp)
	}

	// Compile phases to index spans. No phases = one span, all clients.
	specPhases := s.Phases
	if len(specPhases) == 0 {
		specPhases = []Phase{{Name: s.Name, Fraction: 1}}
	}
	shares := make([]float64, len(specPhases))
	for i := range specPhases {
		shares[i] = specPhases[i].Fraction
	}
	bounds := boundaries(s.Trials, shares)
	start := 0
	for i := range specPhases {
		ph := phaseSpan{name: specPhases[i].Name, start: start, end: bounds[i]}
		start = bounds[i]
		if len(specPhases[i].Clients) == 0 {
			for ci := range s.Clients {
				ph.active = append(ph.active, ci)
			}
		} else {
			for _, name := range specPhases[i].Clients {
				for ci := range s.Clients {
					if s.Clients[ci].Name == name {
						ph.active = append(ph.active, ci)
					}
				}
			}
		}
		sum := 0.0
		for _, ci := range ph.active {
			sum += fr[ci]
			if hammerClient[ci] {
				ph.hammer = true
			}
		}
		cumv := 0.0
		for _, ci := range ph.active {
			cumv += fr[ci] / sum
			ph.cum = append(ph.cum, cumv)
		}
		p.phases = append(p.phases, ph)
	}
	return p
}

// phaseAt finds the span holding a trial index.
func (p *plan) phaseAt(index int) *phaseSpan {
	return &p.phases[p.phaseIdx(index)]
}

// phaseIdx finds the position of the span holding a trial index.
func (p *plan) phaseIdx(index int) int {
	for i := range p.phases {
		if index < p.phases[i].end {
			return i
		}
	}
	return len(p.phases) - 1
}

// pickClient selects the trial's client. A single active client draws
// nothing — the rule that keeps single-client presets (the soaks) on
// the RNG sequences their golden counts pin.
func (p *plan) pickClient(r *rand.Rand, ph *phaseSpan) int {
	if len(ph.active) == 1 {
		return ph.active[0]
	}
	f := r.Float64()
	for i, c := range ph.cum {
		if f < c {
			return ph.active[i]
		}
	}
	return ph.active[len(ph.active)-1]
}

// blockClient maps a trial index to its client under block selection —
// contiguous per-client index ranges, the Figure 4/5 stratification.
// It consumes no randomness.
func (p *plan) blockClient(index int) int {
	for ci, b := range p.blocks {
		if index < b {
			return ci
		}
	}
	return len(p.blocks) - 1
}

// envAt resolves a client's fault environment at a trial index,
// honouring its chip-failure epochs.
func (p *plan) envAt(ci, index int) *FaultEnv {
	cp := &p.clients[ci]
	env := cp.envs[0]
	for i, at := range cp.envSwitch {
		if index >= at {
			env = cp.envs[i+1]
		}
	}
	return env
}

// drawLine draws the trial's line address for a client, or -1 when the
// scenario has no address space (the soak shape — no draw at all).
func (p *plan) drawLine(r *rand.Rand, ci int) int {
	s := p.spec
	c := p.clients[ci].c
	pattern := "uniform"
	if c.Access != nil && c.Access.Pattern != "" {
		pattern = c.Access.Pattern
	}
	switch pattern {
	case "fixed":
		return c.Access.Line
	case "hotrow":
		// The flip lands in one of the aggressor's two victim rows, on a
		// random line within that row.
		victim := p.aggr - 1
		if r.Intn(2) == 1 {
			victim = p.aggr + 1
		}
		return victim*s.RowLines + r.Intn(s.RowLines)
	case "zipf":
		sExp := c.Access.ZipfS
		if sExp == 0 {
			sExp = 1.2
		}
		return int(rand.NewZipf(r, sExp, 1, uint64(s.Lines-1)).Uint64())
	default: // uniform
		if s.Lines <= 0 {
			return -1
		}
		return r.Intn(s.Lines)
	}
}

func envActive(env *FaultEnv) bool {
	return env != nil && env.Kind != "" && env.Kind != "none"
}

// --- decode worker state ----------------------------------------------------

// decodeState is one worker's (or the sequential loop's) decode
// machinery: scratch, recorder, the cached clean line, and the fault
// injectors, all derived from the campaign seed alone so outcomes stay
// independent of worker count.
type decodeState struct {
	scratch   *poly.Scratch
	rec       *poly.AnomalyRecorder
	data      [poly.LineBytes]byte
	clean     dram.Burst
	g         dram.WordGeometry
	injectors []faults.Injector
	named     map[string]faults.Injector
	lat       *workerLat
}

func newDecodeState(j *telemetry.Journal, source string, code *poly.Code, seed int64, modelNames []string) *decodeState {
	rec := poly.NewAnomalyRecorder(j, source, code)
	ws := &decodeState{scratch: rec.Code().NewScratch(), rec: rec}
	rand.New(rand.NewSource(seed)).Read(ws.data[:])
	ws.clean = rec.Code().ToBurst(rec.Code().EncodeLineScratch(&ws.data, ws.scratch))
	ws.g = dram.WordGeometry{SymbolBits: code.Geometry().SymbolBits}
	ws.injectors = faults.InModel(ws.g)
	if len(modelNames) > 0 {
		ws.named = make(map[string]faults.Injector, len(modelNames))
		for _, name := range modelNames {
			inj, err := faults.New(name, ws.g)
			if err != nil {
				// Validate() vetted every model name; a miss here is a bug.
				panic(err)
			}
			ws.named[name] = inj
		}
	}
	return ws
}

// applyFault materializes a fault environment onto the burst, returning
// the injected-model label for the journal.
func (ws *decodeState) applyFault(r *rand.Rand, env *FaultEnv, burst *dram.Burst) string {
	switch env.Kind {
	case "in-model":
		inj := ws.injectors[r.Intn(len(ws.injectors))]
		inj.Inject(r, burst)
		return inj.Name()
	case "model":
		inj := ws.named[env.Model]
		inj.Inject(r, burst)
		return inj.Name()
	case "rowhammer":
		mask := rowhammer.New(r.Int63(), ws.g).Next()
		burst.Xor(&mask)
		return "rowhammer"
	}
	return ""
}

// resolveCode builds the Polymorphic instance a decode scenario runs:
// Opts.Code when pre-built (the shape the shared -code flag resolver
// hands a command), the spec's registry name otherwise.
func resolveCode(s *Spec, opts Opts) (linecode.Code, *poly.Code, error) {
	lc := opts.Code
	if lc == nil {
		built, err := linecode.New(s.Code)
		if err != nil {
			return nil, nil, err
		}
		lc = built
	}
	p, ok := lc.(linecode.Poly)
	if !ok {
		return nil, nil, fmt.Errorf("scenario %q: decode scenarios need a Polymorphic code, got %s", s.Name, lc.Name())
	}
	return lc, p.C.WithMaxIterations(decodeMaxIterations).WithMetrics(opts.Metrics), nil
}

// --- the parallel decode engine ---------------------------------------------

// runDecode executes a decode-kind spec on the campaign engine: trials
// sharded across workers with per-trial splitmix64 RNG, checkpoint/
// resume, panic isolation — bit-identical counts at any worker count.
func runDecode(ctx context.Context, s *Spec, opts Opts) (*Result, error) {
	lc, code, err := resolveCode(s, opts)
	if err != nil {
		return nil, err
	}
	p := newPlan(s)
	multi := len(s.Clients) > 1
	coll := latCollector(s, opts)
	var clocks []phaseClock
	if coll != nil {
		clocks = make([]phaseClock, len(p.phases))
	}

	cfg := opts.config(s.Name, s.Trials, s.Seed, "sdc", "due", "panic")
	cfg.WorkerState = func() any {
		wcode := code
		if coll != nil {
			// Per-worker probe: every decode/encode of this worker lands
			// in its own uncontended stripes on the shared collector.
			wcode = code.WithLatency(coll.Probe())
		}
		ws := newDecodeState(opts.Journal, s.Name, wcode, s.Seed, p.models)
		if coll != nil {
			ws.lat = newWorkerLat(coll, s, p)
		}
		return ws
	}
	res, err := campaign.Run(ctx, cfg, func(t *campaign.Trial) {
		ws := t.Local.(*decodeState)
		r := t.RNG
		pi := p.phaseIdx(t.Index)
		var ci int
		if s.Selection == "block" {
			ci = p.blockClient(t.Index)
		} else {
			ci = p.pickClient(r, &p.phases[pi])
		}
		if multi {
			t.Record("client." + s.Clients[ci].Name)
		}
		burst := ws.clean
		line := p.drawLine(r, ci)
		env := p.envAt(ci, t.Index)
		injected := ""
		if fire := envActive(env); fire {
			if env.Rate > 0 && env.Rate < 1 {
				fire = r.Float64() < env.Rate
			}
			if fire {
				injected = ws.applyFault(r, env, &burst)
			}
		}
		wcode := ws.rec.Code()
		rl := wcode.FromBurstScratch(&burst, ws.scratch)
		got, rep := wcode.DecodeLineScratch(rl, ws.scratch)
		if ws.lat != nil {
			// rep.Elapsed is stamped because the latency probe makes the
			// code instrumented; attribution consumes no randomness.
			ws.lat.clients[ci].Observe(rep.Elapsed)
			ws.lat.phases[pi].Observe(rep.Elapsed)
			clocks[pi].stamp(time.Now().UnixNano())
		}
		t.Add("iterations", int64(rep.Iterations))
		sdc := false
		switch rep.Status {
		case poly.StatusClean:
			t.Record("clean")
		case poly.StatusCorrected:
			t.Record("corrected")
			t.Record("model." + rep.Model.String())
			if got != ws.data {
				sdc = true
				t.Record("sdc")
			}
		case poly.StatusUncorrectable:
			t.Record("due")
		}
		base := telemetry.Event{Worker: t.Worker, Index: t.Index}
		if line >= 0 {
			base.Index = line
		}
		if s.TickNs > 0 {
			base.TimeNs = virtualT0 + int64(t.Index+1)*s.TickNs
		}
		ws.rec.RecordDecode(rl, &rep, base, injected, sdc)
	})
	out := &Result{
		Spec:         s,
		Campaign:     res,
		AggressorRow: p.aggr,
		CodeLabel:    fmt.Sprintf("%s (M=%d)", lc.Name(), code.M()),
	}
	if coll != nil {
		out.Latency = latDigest(coll, phaseWall(clocks, p))
	}
	return out, err
}

// --- derived summaries ------------------------------------------------------

// DecodeSummary is the outcome digest of a decode (or replay) scenario:
// outcome counts plus the scenario extras (per-client counts, the
// aggressor row).
type DecodeSummary struct {
	Code          string // display name of the decoded scheme
	Trials        int    // requested budget
	Completed     int    // trials accounted for (== Trials unless Partial)
	Partial       bool
	Panics        int64
	Clean         int
	Corrected     int
	Uncorrectable int
	SDC           int // corrected but wrong data (MAC collision)
	PerModel      map[string]int
	Iterations    int64 // total correction trials
	PerClient     map[string]int
	AggressorRow  int // -1 when no client hammers
}

// Decode derives the decode-kind digest from the campaign counts.
func (r *Result) Decode() DecodeSummary {
	res := r.Campaign
	d := DecodeSummary{
		Code:          r.CodeLabel,
		Trials:        r.Spec.Trials,
		Completed:     res.Completed,
		Partial:       res.Partial,
		Panics:        res.Panics,
		Clean:         int(res.Count("clean")),
		Corrected:     int(res.Count("corrected")),
		Uncorrectable: int(res.Count("due")),
		SDC:           int(res.Count("sdc")),
		PerModel:      map[string]int{},
		Iterations:    res.Count("iterations"),
		PerClient:     map[string]int{},
		AggressorRow:  r.AggressorRow,
	}
	for label, n := range res.Counts {
		if model, ok := strings.CutPrefix(label, "model."); ok {
			d.PerModel[model] = int(n)
		}
		if client, ok := strings.CutPrefix(label, "client."); ok {
			d.PerClient[client] = int(n)
		}
	}
	return d
}
