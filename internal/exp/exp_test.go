package exp

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"polyecc/internal/linecode"
	"polyecc/internal/scenario"
	"polyecc/internal/telemetry"
	"polyecc/internal/workload"
)

// presetSpec builds the named scenario preset the way `faultinject
// -scenario name -n n -seed seed` does: the budget is per client for
// the figure campaigns and total for the soaks.
func presetSpec(t *testing.T, name string, n int, seed int64) *scenario.Spec {
	t.Helper()
	p, ok := scenario.LookupPreset(name)
	if !ok {
		t.Fatalf("no preset %q", name)
	}
	s := p.Build()
	s.Seed = seed
	s.SetBudget(n)
	return s
}

// polySoak runs the "polysoak" preset through the flagship code.
func polySoak(t *testing.T, ctx context.Context, trials int, seed int64, opts scenario.Opts) scenario.DecodeSummary {
	t.Helper()
	opts.Code = linecode.MustNew("poly-m2005")
	res, err := scenario.Run(ctx, presetSpec(t, "polysoak", trials, seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Decode()
}

// Table II shape: even-count Hamming errors are never misdetected
// (distance 4), odd-count ones mostly are; RS misdetects a few percent
// across the board (paper: ~6.9% average).
func TestTableIIShape(t *testing.T) {
	res := TableII(4000, 1)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	ham := res.Rows[0]
	for i, n := 0, 2; n <= 8; i, n = i+1, n+1 {
		if n%2 == 0 && ham.Rates[i] != 0 {
			t.Errorf("Hamming %d-bit misdetection = %.2f%%, want 0", n, ham.Rates[i])
		}
		if n%2 == 1 && (ham.Rates[i] < 50 || ham.Rates[i] > 90) {
			t.Errorf("Hamming %d-bit misdetection = %.2f%%, want 50..90 (paper ~62-76)", n, ham.Rates[i])
		}
	}
	rs := res.Rows[1]
	for i := range rs.Rates {
		if rs.Rates[i] < 3 || rs.Rates[i] > 12 {
			t.Errorf("RS misdetection[%d] = %.2f%%, want a few percent (paper ~6.3-7)", i, rs.Rates[i])
		}
	}
	if rs.Average < 4 || rs.Average > 10 {
		t.Errorf("RS average = %.2f%%, paper reports 6.9", rs.Average)
	}
	if !strings.Contains(res.Render(), "Hamming") {
		t.Error("render missing rows")
	}
}

// Table III is fully deterministic and must match the paper exactly.
func TestTableIIIExact(t *testing.T) {
	res := TableIII()
	if res.M511.Histogram[10] != 510 || res.M511.Remainders != 510 {
		t.Errorf("M=511 histogram wrong: %+v", res.M511)
	}
	want := map[int]int{1: 368, 2: 520, 3: 528, 4: 328, 5: 130, 6: 22, 7: 2}
	for deg, n := range want {
		if res.M2005.Histogram[deg] != n {
			t.Errorf("M=2005 degree %d: %d, want %d", deg, res.M2005.Histogram[deg], n)
		}
	}
	if !strings.Contains(res.Render(), "2005") {
		t.Error("render missing multiplier")
	}
}

// Table IV shape: per-configuration aliasing statistics near the paper's
// values.
func TestTableIVShape(t *testing.T) {
	rows := TableIV()
	find := func(symBits int, m uint64, model string) *TableIVRow {
		for i := range rows {
			if rows[i].SymbolBits == symBits && rows[i].M == m && rows[i].Model == model {
				return &rows[i]
			}
		}
		t.Fatalf("missing row %d %d %s", symBits, m, model)
		return nil
	}
	// SSC rows are deterministic and close to the paper.
	if r := find(8, 511, "SSC"); r.Stats.Avg != 10 || r.MACBits != 56 {
		t.Errorf("511 SSC: %+v", r)
	}
	if r := find(8, 1021, "SSC"); r.Stats.Avg != 5 || r.MACBits != 48 {
		t.Errorf("1021 SSC: %+v", r)
	}
	if r := find(8, 2005, "SSC"); r.Stats.Avg < 2.6 || r.Stats.Avg > 2.8 || r.Stats.Max != 7 || r.MACBits != 40 {
		t.Errorf("2005 SSC: %+v", r.Stats)
	}
	if r := find(16, 131049, "SSC"); r.Stats.Avg < 9.9 || r.Stats.Max > 11 || r.MACBits != 60 {
		t.Errorf("131049 SSC: %+v", r.Stats)
	}
	// Multi-symbol models: near the paper's averages.
	if r := find(8, 2005, "DEC"); r.Stats.Avg < 4.5 || r.Stats.Avg > 7.5 {
		t.Errorf("2005 DEC avg = %.2f, paper 5.75", r.Stats.Avg)
	}
	if r := find(8, 2005, "BF+BF"); r.Stats.Avg < 70 || r.Stats.Avg > 90 {
		t.Errorf("2005 BF+BF avg = %.2f, paper 78.81", r.Stats.Avg)
	}
	if r := find(8, 2005, "ChipKill+1"); r.Stats.Avg < 300 || r.Stats.Avg > 420 {
		t.Errorf("2005 ChipKill+1 avg = %.2f, paper 355", r.Stats.Avg)
	}
	if r := find(16, 131049, "DEC"); r.Stats.Avg < 1.0 || r.Stats.Avg > 1.6 {
		t.Errorf("131049 DEC avg = %.2f, paper 1.14", r.Stats.Avg)
	}
	if !strings.Contains(RenderTableIV(rows), "BF+BF") {
		t.Error("render missing model")
	}
}

// Figure 7 shape: smaller multipliers leave more MAC bits and alias more.
func TestFigure7Shape(t *testing.T) {
	points := Figure7(9, 11)
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].MACBits >= points[i-1].MACBits {
			t.Error("MAC bits should shrink as redundancy grows")
		}
		if points[i].MeanAvg >= points[i-1].MeanAvg {
			t.Error("aliasing should shrink as redundancy grows")
		}
	}
	if points[0].MACBits != 56 {
		t.Errorf("9-bit budget MAC = %d, want 56", points[0].MACBits)
	}
	if !strings.Contains(RenderFigure7(points), "Redundancy") {
		t.Error("render broken")
	}
}

// Table V shape at reduced trial counts: Polymorphic corrects everything;
// RS fails DEC/BF+BF/ChipKill+1; Bamboo fails SSC; ChipKill is cheap for
// Polymorphic and DEC is the expensive model.
func TestTableVShape(t *testing.T) {
	res := TableV(12, 3, 1)
	byModel := map[string]TableVRow{}
	for _, row := range res.Rows {
		if row.SymbolBits == 8 {
			byModel[row.Model] = row
		}
	}
	cell := func(row TableVRow, code string) CodeCell {
		for _, c := range row.Cells {
			if c.Code == code {
				return c
			}
		}
		t.Fatalf("missing cell %s", code)
		return CodeCell{}
	}
	for _, model := range []string{"ChipKill", "SSC", "DEC", "BF+BF", "ChipKill+1"} {
		row, ok := byModel[model]
		if !ok {
			t.Fatalf("missing model %s", model)
		}
		if p := cell(row, "Polymorphic"); p.Corrected < 0.99 {
			t.Errorf("%s: Polymorphic corrected %.2f, want 1.0", model, p.Corrected)
		}
	}
	if c := cell(byModel["ChipKill"], "Reed-Solomon"); c.Corrected < 0.99 {
		t.Error("RS must correct ChipKill")
	}
	if c := cell(byModel["DEC"], "Reed-Solomon"); c.DUE+c.SDC < 0.5 {
		t.Error("DEC must overwhelm RS")
	}
	if c := cell(byModel["BF+BF"], "Unity"); c.DUE+c.SDC < 0.5 {
		t.Error("BF+BF must overwhelm Unity")
	}
	if c := cell(byModel["SSC"], "Bamboo"); c.DUE < 0.5 {
		t.Error("SSC must overwhelm Bamboo (pin alignment)")
	}
	// Iteration ordering: ChipKill cheapest, DEC most expensive.
	if byModel["ChipKill"].Iterations.Mean() > 5 {
		t.Errorf("ChipKill iterations = %.1f, want ~1", byModel["ChipKill"].Iterations.Mean())
	}
	if byModel["DEC"].Iterations.Mean() <= byModel["SSC"].Iterations.Mean() {
		t.Error("DEC must cost more iterations than SSC")
	}
	// Analytic SDC must be tiny (iters x 2^-40).
	if byModel["SSC"].AnalyticSDC > 1e-6 {
		t.Errorf("SSC analytic SDC = %v", byModel["SSC"].AnalyticSDC)
	}
	// 16-bit rows exist and correct.
	var has16 bool
	for _, row := range res.Rows {
		if row.SymbolBits == 16 {
			has16 = true
			if c := row.Cells[0]; c.Corrected < 0.99 {
				t.Errorf("16b %s: corrected %.2f", row.Model, c.Corrected)
			}
		}
	}
	if !has16 {
		t.Error("missing 16-bit rows")
	}
	if !strings.Contains(RenderTableV(res.Rows), "Polymorphic") {
		t.Error("render broken")
	}
}

// The rowhammer row: all codes correct the overwhelming majority; the
// Polymorphic average iteration count is small (paper: 2.52).
func TestRowhammerRowShape(t *testing.T) {
	row := RowhammerRow(400, 2)
	for _, c := range row.Cells {
		if c.Corrected < 0.95 {
			t.Errorf("%s corrected only %.3f of rowhammer patterns", c.Code, c.Corrected)
		}
	}
	if m := row.Iterations.Mean(); m > 20 {
		t.Errorf("Polymorphic rowhammer iterations = %.2f, paper reports 2.52", m)
	}
}

// Figure 10 shape: iterations grow (roughly exponentially) with the
// number of corrupted codewords.
func TestFigure10Shape(t *testing.T) {
	points := Figure10(4, 3)
	if len(points) != 8 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Iterations.Mean() <= 0 {
		t.Error("single-codeword DEC should take some iterations")
	}
	// Our PRUNER also applies the fault model's flip-consistency check
	// (§VI-C pruning is only under/overflow in the paper), so candidate
	// lists are shorter and growth is flatter than the paper's — but it
	// must still be strongly super-linear in the corrupted-word count.
	if points[7].Iterations.Mean() < 20*points[0].Iterations.Mean() {
		t.Errorf("iterations should explode with corrupted codewords: %v vs %v",
			points[7].Iterations.Mean(), points[0].Iterations.Mean())
	}
	if !strings.Contains(RenderFigure10(points), "Corrupted") {
		t.Error("render broken")
	}
}

// The miscorrection pool produces nonzero masks.
func TestMiscorrectionPool(t *testing.T) {
	pool, err := scenario.NewMiscorrectionPool(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Masks) != 20 {
		t.Fatalf("masks = %d", len(pool.Masks))
	}
	for _, m := range pool.Masks {
		nonzero := false
		for _, b := range m {
			if b != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			t.Fatal("zero mask in pool")
		}
	}
}

// Figure 4 at small scale: encryption must not reduce SDCs on aggregate
// (the paper: "No application showed reduction in SDC with encrypted
// memory"), checked on the suite-wide totals to keep noise manageable.
func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaign")
	}
	res, err := scenario.Run(context.Background(), presetSpec(t, "figure4", 30, 5), scenario.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.ProgramRows()
	if want := 2 * len(workload.Programs()); len(rows) != want {
		t.Fatalf("rows = %d, want %d (every workload x 2 memory models)", len(rows), want)
	}
	var sdcNE, sdcE float64
	for _, r := range rows {
		if r.Crashed+r.Hang+r.SDC+r.NoEffect < 99.9 {
			t.Errorf("%s shares do not sum to 100", r.Workload)
		}
		if r.Encrypted {
			sdcE += r.SDC
		} else {
			sdcNE += r.SDC
		}
	}
	if sdcE < sdcNE*0.8 {
		t.Errorf("suite-wide SDC with encryption (%.1f) markedly below plaintext (%.1f)", sdcE, sdcNE)
	}
	if !strings.Contains(res.Render(), "Crashed") {
		t.Error("render broken")
	}
}

// Figure 5 at small scale: encrypted-memory injections must not leave
// more near-baseline inferences than plaintext ones (the 16% decrease of
// the paper), and the FHE campaign reports a >10% drop share.
func TestFigure5Shape(t *testing.T) {
	res, err := scenario.Run(context.Background(), presetSpec(t, "figure5", 500, 7), scenario.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	results := res.InferenceResults()
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	plain, enc, fhe := results[0], results[1], results[2]
	if plain.BaselineAcc < 0.9 {
		t.Errorf("baseline accuracy %.2f too low", plain.BaselineAcc)
	}
	if enc.NearBaseline > plain.NearBaseline {
		t.Errorf("encryption increased near-baseline inferences: %d > %d", enc.NearBaseline, plain.NearBaseline)
	}
	// The paper reports +19% failed inferences with encryption; allow
	// Monte Carlo noise but reject a clear reversal.
	if float64(enc.Failed) < 0.5*float64(plain.Failed) {
		t.Errorf("encryption halved failed inferences: %d vs %d", enc.Failed, plain.Failed)
	}
	if fhe.BigDropShare == 0 {
		t.Error("FHE campaign shows no >10% drops; the paper reports 18.5%")
	}
	if !strings.Contains(res.Render(), "cryptonets") {
		t.Error("render broken")
	}
}

// Figure 11 shape: small positive average slowdown (paper: ~1%, max ~3%).
func TestFigure11Shape(t *testing.T) {
	rows, err := Figure11(150000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.Programs()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(workload.Programs()))
	}
	var sum float64
	for _, r := range rows {
		if r.SlowdownPct < 0 {
			t.Errorf("%s: negative slowdown %.3f", r.Workload, r.SlowdownPct)
		}
		if r.SlowdownPct > 8 {
			t.Errorf("%s: slowdown %.2f%% implausibly high", r.Workload, r.SlowdownPct)
		}
		sum += r.SlowdownPct
	}
	avg := sum / float64(len(rows))
	if avg > 4 {
		t.Errorf("average slowdown %.2f%%, paper reports ≈1%%", avg)
	}
	if !strings.Contains(RenderFigure11(rows), "Slowdown") {
		t.Error("render broken")
	}
}

// Table VI sanity: circuits present, latency model near the paper, hint
// storage near the paper's rows.
func TestTableVIShape(t *testing.T) {
	res := TableVI()
	if len(res.Circuits) != 6 {
		t.Fatalf("circuits = %d", len(res.Circuits))
	}
	if res.Latency.FixedNS < 3 || res.Latency.FixedNS > 5 {
		t.Errorf("fixed latency %.2f", res.Latency.FixedNS)
	}
	byModel := map[string]HintStorageRow{}
	for _, h := range res.Hints {
		byModel[h.Model+string(rune('0'+h.SymbolBits/8))] = h
	}
	if dec := byModel["DEC1"]; dec.KB < 10 || dec.KB > 25 {
		t.Errorf("DEC hint storage %.1f kB (paper: 17)", dec.KB)
	}
	if bf := byModel["BF+BF1"]; bf.KB < 200 || bf.KB > 300 {
		t.Errorf("BF+BF hint storage %.1f kB (paper: 259)", bf.KB)
	}
	if ck := byModel["ChipKill+11"]; ck.KB < 700 || ck.KB > 1400 {
		t.Errorf("ChipKill+1 hint storage %.1f kB (paper: 892)", ck.KB)
	}
	if !strings.Contains(res.Render(), "Encoder/Decoder") {
		t.Error("render broken")
	}
}

// The HBM-style geometry study (the paper's future work) must find the
// known DDR5 anchors and a multiplier for every feasible geometry.
func TestHBMStudy(t *testing.T) {
	rows := HBMStudy()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].SmallestM != 511 || rows[0].MACBits != 7 {
		t.Errorf("DDR5 8b anchor wrong: %+v", rows[0])
	}
	for _, r := range rows {
		if r.SmallestM == 0 {
			t.Errorf("%s: no multiplier found", r.Label)
			continue
		}
		if r.MACBits < 0 {
			t.Errorf("%s: negative MAC budget", r.Label)
		}
	}
	if !strings.Contains(RenderHBMStudy(rows), "HBM") {
		t.Error("render broken")
	}
}

// §V-B storage argument: Polymorphic ECC needs less redundancy than MUSE
// and is the only scheme with MAC bits left over and no lookup table.
func TestStorageComparison(t *testing.T) {
	rows := StorageComparison()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	polyRow, museRow, rsRow := rows[0], rows[1], rows[2]
	if polyRow.RedundancyBit != 9 {
		t.Errorf("Polymorphic redundancy = %d, want 9", polyRow.RedundancyBit)
	}
	if museRow.RedundancyBit <= polyRow.RedundancyBit {
		t.Error("MUSE must spend more redundancy than Polymorphic (paper: 12 vs 9)")
	}
	if polyRow.MACBit == 0 || museRow.MACBit != 0 || rsRow.MACBit != 0 {
		t.Error("only Polymorphic leaves MAC bits")
	}
	if museRow.TableEntries == 0 || polyRow.TableEntries != 0 {
		t.Error("only MUSE needs a lookup table for SDDC")
	}
	if museRow.ChannelBits != 80 || polyRow.ChannelBits != 40 {
		t.Error("channel widths wrong")
	}
	if !strings.Contains(RenderStorageComparison(rows), "MUSE") {
		t.Error("render broken")
	}
}

// A soak that is drained mid-flight and resumed from its checkpoint must
// reproduce the uninterrupted run's outcome counts exactly — at three
// different worker counts along the way.
func TestPolySoakResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaign")
	}
	const trials, seed = 300, 9
	full := polySoak(t, context.Background(), trials, seed, scenario.Opts{Workers: 4})
	if full.Partial || full.Completed != trials {
		t.Fatalf("uninterrupted run incomplete: %+v", full)
	}

	path := filepath.Join(t.TempDir(), "soak.ckpt.json")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	interrupted := polySoak(t, ctx, trials, seed,
		scenario.Opts{Workers: 2, CheckpointPath: path, CheckpointEvery: 10})
	t.Logf("interrupted run completed %d/%d trials", interrupted.Completed, trials)

	resumed := polySoak(t, context.Background(), trials, seed,
		scenario.Opts{Workers: 7, CheckpointPath: path, CheckpointEvery: 10, Resume: true})
	if resumed.Partial || resumed.Completed != trials {
		t.Fatalf("resumed run incomplete: %+v", resumed)
	}
	resumed.Trials = full.Trials // normalize bookkeeping fields before the deep compare
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("interrupted+resumed soak differs from uninterrupted run:\n%+v\nvs\n%+v", full, resumed)
	}
}

// A cancelled Figure 4 campaign drains into a partial result instead of
// an error, and only reports workloads it actually reached.
func TestFigure4PartialDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := scenario.Run(ctx, presetSpec(t, "figure4", 10, 5), scenario.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.ProgramRows()
	if !res.Campaign.Partial {
		t.Fatal("pre-cancelled campaign not marked partial")
	}
	if res.Campaign.Completed != 0 || len(rows) != 0 {
		t.Fatalf("pre-cancelled campaign reported rows: completed=%d rows=%d", res.Campaign.Completed, len(rows))
	}
}

// The soak with a flight recorder attached must journal every injected
// decode with its forensic payload (the soak injects a fault every
// trial, so every decode is anomalous) plus worker spans, and the
// decoded outcome labels must agree with the soak's own counts.
func TestPolySoakJournalsDecodes(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaign")
	}
	const trials, seed = 150, 11
	j := telemetry.NewJournal(16384)
	res := polySoak(t, context.Background(), trials, seed, scenario.Opts{Workers: 3, Journal: j})
	var anomalies, spans int
	for _, e := range j.Drain() {
		switch e.Kind {
		case telemetry.KindDecodeAnomaly:
			anomalies++
			if e.Source != "polysoak" {
				t.Fatalf("anomaly from unexpected source: %+v", e)
			}
			da, ok := e.Detail.(*telemetry.DecodeAnomaly)
			if !ok {
				t.Fatalf("Detail is %T", e.Detail)
			}
			if da.Injected == "" || len(da.Words) == 0 {
				t.Fatalf("forensic payload incomplete: %+v", da)
			}
		case telemetry.KindSpan:
			spans++
		case telemetry.KindTrialOutcome:
			// sdc/due/panic trials, already covered by the anomaly record
		default:
			t.Fatalf("unexpected event kind %q", e.Kind)
		}
	}
	// Every soak trial injects a fault, so every decode journals.
	if anomalies != trials {
		t.Fatalf("journaled %d decode anomalies, want %d", anomalies, trials)
	}
	if spans == 0 {
		t.Fatal("no worker spans journaled")
	}
	if res.Completed != trials {
		t.Fatalf("soak incomplete: %+v", res)
	}
}
