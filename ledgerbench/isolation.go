package main

// The layer-isolation table times each public call on fixed inputs,
// outside any workload: the context-free reference the traced,
// in-workload numbers are read against. Its inputs come from a fixed
// seed, never from --seed, so the table measures the same work on
// every run.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"polyecc/internal/campaign"
	"polyecc/internal/dram"
	"polyecc/internal/exp"
	"polyecc/internal/faults"
	"polyecc/internal/health"
	"polyecc/internal/linecode"
	"polyecc/internal/mac"
	"polyecc/internal/memctl"
	"polyecc/internal/poly"
	"polyecc/internal/rowhammer"
	"polyecc/internal/scrub"
	"polyecc/internal/telemetry"
)

const isolationSeed = 1

// isoReps is how many timed repetitions each entry's median is over.
const isoReps = 5

// isoRepTarget is the wall time one repetition aims for.
const isoRepTarget = 10 * time.Millisecond

// nsPerOp times fn(n) — n calls of the operation — and returns the
// median ns per call over isoReps repetitions of a calibrated n.
func nsPerOp(fn func(n int)) float64 {
	n := 1
	for {
		start := time.Now()
		fn(n)
		d := time.Since(start)
		if d >= isoRepTarget/8 {
			n = int(float64(n)*float64(isoRepTarget)/float64(d)) + 1
			break
		}
		n *= 4
	}
	samples := make([]float64, isoReps)
	for i := range samples {
		start := time.Now()
		fn(n)
		samples[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// isoEntry is one row of the isolation table.
type isoEntry struct {
	name  string
	value float64
	unit  string
	call  string // the public call measured
}

type isolation struct {
	rows []isoEntry
}

func (iso *isolation) put(name string, value float64, unit, call string) {
	iso.rows = append(iso.rows, isoEntry{name, value, unit, call})
}

func (iso *isolation) values() map[string]float64 {
	out := make(map[string]float64, len(iso.rows))
	for _, r := range iso.rows {
		out[r.name] = r.value
	}
	return out
}

// faultedLines encodes one fixed line and returns count copies of it
// faulted by inj, read off the wire.
func faultedLines(code *poly.Code, inj faults.Injector, count int) (lines []poly.Line) {
	r := rand.New(rand.NewSource(isolationSeed))
	var data [poly.LineBytes]byte
	r.Read(data[:])
	clean := code.ToBurst(code.EncodeLine(&data))
	for i := 0; i < count; i++ {
		b := clean
		inj.Inject(r, &b)
		lines = append(lines, code.FromBurst(&b))
	}
	return lines
}

func buildPoly(name string) (*poly.Code, float64, error) {
	samples := make([]float64, 3)
	var code *poly.Code
	for i := range samples {
		start := time.Now()
		lc, err := linecode.New(name)
		samples[i] = time.Since(start).Seconds()
		if err != nil {
			return nil, 0, err
		}
		code = lc.(linecode.Poly).C
	}
	return code, median(samples), nil
}

// measureIsolation fills the isolation table.
func measureIsolation() (*isolation, error) {
	iso := &isolation{}
	codes := map[string]*poly.Code{}
	for _, name := range []string{"poly-m511", "poly-m1021", "poly-m2005", "poly-m131049"} {
		code, s, err := buildPoly(name)
		if err != nil {
			return nil, err
		}
		codes[name] = code
		iso.put("linecode.new_s."+name, s, "s", "linecode.New("+name+")")
	}
	m2005 := codes["poly-m2005"].WithMaxIterations(engineMaxIterations)

	r := rand.New(rand.NewSource(isolationSeed))
	var data [poly.LineBytes]byte
	r.Read(data[:])
	for _, name := range []string{"poly-m2005", "poly-m131049"} {
		code := codes[name]
		g := "s" + fmt.Sprint(code.Geometry().SymbolBits)
		s := code.NewScratch()
		enc := code.EncodeLine(&data)
		burst := code.ToBurst(enc)
		var sinkB dram.Burst
		iso.put("dram.from_burst_ns."+g, nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				code.FromBurstScratch(&burst, s)
			}
		}), "ns", name+" FromBurstScratch")
		iso.put("dram.to_burst_ns."+g, nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				sinkB = code.ToBurst(enc)
			}
		}), "ns", name+" ToBurst")
		_ = sinkB
	}

	s := m2005.NewScratch()
	iso.put("poly.encode_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			m2005.EncodeLineScratch(&data, s)
		}
	}), "ns", "poly-m2005 EncodeLineScratch")
	clean := m2005.EncodeLine(&data)
	iso.put("poly.decode_clean_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			m2005.DecodeLineScratch(clean, s)
		}
	}), "ns", "poly-m2005 DecodeLineScratch, clean line")

	g8 := dram.WordGeometry{SymbolBits: m2005.Geometry().SymbolBits}
	for _, inj := range faults.InModel(g8) {
		k := modelKeys[modelOf(inj.Name())]
		lines := faultedLines(m2005, inj, 64)
		iters := int64(0)
		for _, l := range lines {
			_, rep := m2005.DecodeLineScratch(l, s)
			iters += int64(rep.Iterations)
		}
		iso.put("poly.decode_corrected_ns."+k, nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				m2005.DecodeLineScratch(lines[i%len(lines)], s)
			}
		}), "ns", "poly-m2005 DecodeLineScratch, 64 fixed "+inj.Name()+" faults")
		iso.put("poly.iters."+k, float64(iters)/float64(len(lines)), "count", "MAC checks per decode of those faults")
		b0 := m2005.ToBurst(clean)
		ir := rand.New(rand.NewSource(isolationSeed))
		iso.put("faults.inject_ns."+k, nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				b := b0
				inj.Inject(ir, &b)
			}
		}), "ns", inj.Name()+" Inject")
	}
	iso.put("rowhammer.mask_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			rowhammer.New(r.Int63(), g8).Next()
		}
	}), "ns", "rowhammer.New(seed).Next")

	batch := make([]poly.Line, 32)
	for i := range batch {
		batch[i] = clean
	}
	results := make([]poly.Result, 0, len(batch))
	iso.put("poly.batch32_ns_per_line", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			results = m2005.DecodeLines(results[:0], batch, s)
		}
	})/float64(len(batch)), "ns", "poly-m2005 DecodeLines over 32 clean lines, per line")

	sip := mac.MustSipHash(linecode.DefaultKey, 40)
	iso.put("mac.sum_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sip.Sum(data[:])
		}
	}), "ns", "SipHash-40 Sum over a 64-byte line")

	if err := isoCampaign(iso); err != nil {
		return nil, err
	}
	isoTelemetry(iso, m2005)
	if err := isoScrub(iso, codes["poly-m2005"]); err != nil {
		return nil, err
	}
	return iso, nil
}

// isoCampaign runs campaign.Run with a no-op trial: the per-trial cost
// of the runner alone, RNG construction included.
func isoCampaign(iso *isolation) error {
	const trials = 20000
	var ns, bytes []float64
	for rep := 0; rep < 3; rep++ {
		a0 := heapAllocBytes()
		start := time.Now()
		_, err := campaign.Run(context.Background(), campaign.Config{Name: "noop", Trials: trials, Seed: isolationSeed, Workers: 1},
			func(*campaign.Trial) {})
		ns = append(ns, float64(time.Since(start).Nanoseconds())/trials)
		bytes = append(bytes, float64(heapAllocBytes()-a0)/trials)
		if err != nil {
			return err
		}
	}
	iso.put("campaign.trial_overhead_ns", median(ns), "ns", "campaign.Run, 1 worker, no-op trial")
	iso.put("campaign.alloc_bytes_per_trial", median(bytes), "B", "campaign.Run, 1 worker, no-op trial")
	return nil
}

// anomalyEvents are decode-anomaly events as the soak journals them:
// corrected SSC findings on spread lines, 2ms of virtual time apart.
func anomalyEvents(n int) []telemetry.Event {
	r := rand.New(rand.NewSource(isolationSeed))
	evs := make([]telemetry.Event, n)
	for i := range evs {
		evs[i] = telemetry.Event{
			Kind: telemetry.KindDecodeAnomaly, Source: "isolation", Index: r.Intn(scrubLines),
			TimeNs: virtualT0 + int64(i+1)*2_000_000, Outcome: "corrected",
			Detail: &telemetry.DecodeAnomaly{Status: "corrected", Model: "SSC", Injected: "SSC", Iterations: 2, CorruptedWords: 1},
		}
	}
	return evs
}

// isoTelemetry times journaling a corrected decode, and the health
// engine and controller consuming such events.
func isoTelemetry(iso *isolation, code *poly.Code) {
	j := telemetry.NewJournal(4096)
	rec := poly.NewAnomalyRecorder(j, "isolation", code)
	rc := rec.Code()
	s := rc.NewScratch()
	lines := faultedLines(code, faults.SSC{Geometry: dram.WordGeometry{SymbolBits: code.Geometry().SymbolBits}}, 16)
	const records = 4000
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var recordNs int64
	for i := 0; i < records; i++ {
		l := lines[i%len(lines)]
		_, rep := rc.DecodeLineScratch(l, s)
		start := time.Now()
		rec.RecordDecode(l, &rep, telemetry.Event{Index: i}, "SSC", false)
		recordNs += int64(time.Since(start))
	}
	runtime.ReadMemStats(&ms1)
	iso.put("telemetry.record_ns", float64(recordNs)/records, "ns", "AnomalyRecorder.RecordDecode, corrected SSC, journal on")
	iso.put("telemetry.record_allocs", float64(ms1.Mallocs-ms0.Mallocs)/records, "count", "allocations per traced decode + RecordDecode")

	// Each consumer is built once and fed events of ever later virtual
	// time across the repetitions, so only the per-event work is timed.
	evs := anomalyEvents(4096)
	feed := func(observe func(telemetry.Event)) func(n int) {
		fed := 0
		return func(n int) {
			for i := 0; i < n; i, fed = i+1, fed+1 {
				ev := evs[fed%len(evs)]
				ev.TimeNs += int64(fed/len(evs)) * int64(len(evs)) * 2_000_000
				observe(ev)
			}
		}
	}
	eng := health.New(exp.MemctlSoakHealth())
	iso.put("health.observe_ns", nsPerOp(feed(eng.Observe)), "ns", "health.Engine.Observe, corrected decode-anomaly event")
	ctl := memctl.MustNew(exp.MemctlSoakConfig("poly-m2005", telemetry.NewJournal(4096)))
	iso.put("memctl.observe_ns", nsPerOp(feed(ctl.Observe)), "ns", "memctl.Controller.Observe, same events")
	ctl = memctl.MustNew(exp.MemctlSoakConfig("poly-m2005", telemetry.NewJournal(4096)))
	ticks := int64(0)
	iso.put("memctl.tick_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			ticks++
			ctl.Tick(virtualT0 + ticks*2_000_000)
		}
	}), "ns", "memctl.Controller.Tick, 2ms virtual steps")
}

// isoScrub times patrol sweeps of a clean module, the rewrite of one
// corrected line, and one sweep over a fixed 3% of faulted lines.
func isoScrub(iso *isolation, code *poly.Code) error {
	mod, clean := fillModule(code, isolationSeed)
	sc, err := scrub.New(code, mod, scrub.DefaultPolicy())
	if err != nil {
		return err
	}
	iso.put("scrub.ns_per_line", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sc.Sweep()
		}
	})/scrubLines, "ns", "Scrubber.Sweep over a clean 1024-line module, per line")
	s := code.NewScratch()
	var data [poly.LineBytes]byte
	iso.put("scrub.rewrite_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			mod.WriteBurst(i%scrubLines, code.ToBurst(code.EncodeLineScratch(&data, s)))
		}
	}), "ns", "EncodeLineScratch + ToBurst + WriteBurst")
	mod, clean = fillModule(code, isolationSeed)
	if sc, err = scrub.New(code, mod, scrub.DefaultPolicy()); err != nil {
		return err
	}
	faulted := newScrubInjector(isolationSeed, dram.WordGeometry{SymbolBits: code.Geometry().SymbolBits}).inject(mod)
	st, events := sc.Sweep()
	d := checkSweep(mod, clean, faulted, st.Clean, events)
	iso.put("scrub.corrected_frac", float64(d.Corrected)/float64(d.Ops), "ratio", "one sweep with 32 fixed in-model faults")
	return nil
}
