package linecode

import (
	"math/rand"
	"testing"

	"polyecc/internal/dram"
	"polyecc/internal/faults"
	"polyecc/internal/mac"
	"polyecc/internal/poly"
	"polyecc/internal/rowhammer"
)

var testKey = [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

func allCodes(t testing.TB) []Code {
	t.Helper()
	return []Code{
		Poly{C: poly.MustNew(poly.ConfigM2005(), mac.MustSipHash(testKey, 40))},
		NewRS(),
		NewUnity(),
		NewBamboo(),
	}
}

func randLine(r *rand.Rand) [LineBytes]byte {
	var d [LineBytes]byte
	r.Read(d[:])
	return d
}

func TestCleanRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, c := range allCodes(t) {
		for i := 0; i < 30; i++ {
			data := randLine(r)
			b := c.Encode(&data)
			got, outcome, _ := c.Decode(&b)
			if outcome != OK || got != data {
				t.Fatalf("%s: clean round trip failed", c.Name())
			}
		}
	}
}

// A DUE word keeps its raw wire bytes in the returned data, and the
// other words of the line are still corrected: the RS and Unity adapters
// read each codeword off the wire once and reuse it on the DUE branch.
func TestDUEKeepsRawWord(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	g := dram.WordGeometry{SymbolBits: 8}
	rsc, uc := NewRS(), NewUnity()
	for _, tc := range []struct {
		code  Code
		fails func(cw []byte) bool
	}{
		{rsc, func(cw []byte) bool { _, err := rsc.code.Decode(cw); return err != nil }},
		{uc, func(cw []byte) bool { _, err := uc.code.Decode(cw); return err != nil }},
	} {
		data := randLine(r)
		b := tc.code.Encode(&data)
		const bad = 3
		var raw []byte
		for {
			raw = g.WordBytes(&b, bad)
			for k := 0; k < 3; k++ {
				raw[r.Intn(len(raw))] ^= byte(1 + r.Intn(255))
			}
			if tc.fails(raw) {
				break
			}
		}
		g.SetWordBytes(&b, bad, raw)
		// A correctable single-symbol error in another word.
		m := dram.DeviceMask(4, 2, 4, []byte{0x5, 0xa})
		b.Xor(&m)
		got, outcome, _ := tc.code.Decode(&b)
		if outcome != DUE {
			t.Fatalf("%s: outcome %v, want DUE", tc.code.Name(), outcome)
		}
		for w := 0; w < g.WordsPerBurst(); w++ {
			want := data[8*w : 8*w+8]
			if w == bad {
				want = raw[:8]
			}
			if string(got[8*w:8*w+8]) != string(want) {
				t.Fatalf("%s word %d: data %x, want %x", tc.code.Name(), w, got[8*w:8*w+8], want)
			}
		}
	}
}

// Every scheme must correct a whole-device (ChipKill) failure — the
// baseline guarantee all four codes advertise (Table V, first row).
func TestAllCodesCorrectChipKill(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	inj := faults.ChipKill{Geometry: dram.WordGeometry{SymbolBits: 8}}
	for _, c := range allCodes(t) {
		for i := 0; i < 20; i++ {
			data := randLine(r)
			b := c.Encode(&data)
			inj.Inject(r, &b)
			got, outcome, _ := c.Decode(&b)
			if outcome != OK {
				t.Fatalf("%s: ChipKill trial %d declared DUE", c.Name(), i)
			}
			if got != data {
				t.Fatalf("%s: ChipKill trial %d returned wrong data", c.Name(), i)
			}
		}
	}
}

// SSC (independent symbols per codeword) is in-model for Polymorphic,
// RS, and Unity but out-of-model for Bamboo (§VIII-B: errors from
// different chips corrupt more than four pin-aligned symbols).
func TestSSCCoverageSplit(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	inj := faults.SSC{Geometry: dram.WordGeometry{SymbolBits: 8}}
	const trials = 20
	for _, c := range allCodes(t) {
		var failures int
		for i := 0; i < trials; i++ {
			data := randLine(r)
			b := c.Encode(&data)
			inj.Inject(r, &b)
			got, outcome, _ := c.Decode(&b)
			if outcome != OK || got != data {
				failures++
			}
		}
		switch c.Name() {
		case "Bamboo":
			if failures < trials/2 {
				t.Errorf("Bamboo corrected %d/%d SSC faults; its pin alignment should fail most", trials-failures, trials)
			}
		default:
			if failures != 0 {
				t.Errorf("%s: %d/%d SSC faults not corrected", c.Name(), failures, trials)
			}
		}
	}
}

// DEC is in-model only for Polymorphic and Unity (Table V).
func TestDECCoverageSplit(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	// Two corrupted codewords keep the polymorphic iteration count low in
	// tests; coverage conclusions are unaffected.
	inj := faults.DEC{Geometry: dram.WordGeometry{SymbolBits: 8}, Words: 2}
	const trials = 15
	for _, c := range allCodes(t) {
		var wrong int
		for i := 0; i < trials; i++ {
			data := randLine(r)
			b := c.Encode(&data)
			inj.Inject(r, &b)
			got, outcome, _ := c.Decode(&b)
			if outcome != OK || got != data {
				wrong++
			}
		}
		switch c.Name() {
		case "Polymorphic", "Unity":
			if wrong != 0 {
				t.Errorf("%s: %d/%d DEC faults not corrected", c.Name(), wrong, trials)
			}
		case "Reed-Solomon":
			if wrong == 0 {
				t.Errorf("RS corrected all DEC faults; double-bit errors are out-of-model for t=1")
			}
		}
	}
}

// BF+BF is in-model only for Polymorphic (Table V).
func TestBFBFOnlyPolymorphic(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	inj := faults.BFBF{Geometry: dram.WordGeometry{SymbolBits: 8}}
	const trials = 10
	for _, c := range allCodes(t) {
		var wrong int
		for i := 0; i < trials; i++ {
			data := randLine(r)
			b := c.Encode(&data)
			inj.Inject(r, &b)
			got, outcome, _ := c.Decode(&b)
			if outcome != OK || got != data {
				wrong++
			}
		}
		if c.Name() == "Polymorphic" && wrong != 0 {
			t.Errorf("Polymorphic: %d/%d BF+BF faults not corrected", wrong, trials)
		}
		if c.Name() == "Reed-Solomon" && wrong == 0 {
			t.Errorf("RS corrected all BF+BF faults; they are out-of-model")
		}
	}
}

func TestNamesAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range allCodes(t) {
		if seen[c.Name()] {
			t.Fatalf("duplicate name %q", c.Name())
		}
		seen[c.Name()] = true
	}
}

func BenchmarkRSDecodeChipKill(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	c := NewRS()
	data := randLine(r)
	burst := c.Encode(&data)
	faults.ChipKill{Geometry: dram.WordGeometry{SymbolBits: 8}}.Inject(r, &burst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Decode(&burst)
	}
}

func BenchmarkPolyDecodeChipKill(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	c := Poly{C: poly.MustNew(poly.ConfigM2005(), mac.MustSipHash(testKey, 40))}
	data := randLine(r)
	burst := c.Encode(&data)
	faults.ChipKill{Geometry: dram.WordGeometry{SymbolBits: 8}}.Inject(r, &burst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Decode(&burst)
	}
}

// §VIII-E: Bamboo outperforms every code on rowhammer patterns because
// it corrects up to four symbols and the worst pattern has three flips —
// every generated pattern must decode exactly.
func TestBambooCorrectsAllRowhammerPatterns(t *testing.T) {
	gen := rowhammer.New(3, dram.WordGeometry{SymbolBits: 8})
	c := NewBamboo()
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		data := randLine(r)
		b := c.Encode(&data)
		mask := gen.Next()
		b.Xor(&mask)
		got, outcome, _ := c.Decode(&b)
		if outcome != OK || got != data {
			t.Fatalf("pattern %d (%d flips): Bamboo failed", i, mask.OnesCount())
		}
	}
}

// ChipKill+1 is beyond every baseline: the stuck pin on a second device
// adds symbols past RS's t=1, Unity's double-bit region, and (combined
// with the dead device) Bamboo's t=4.
func TestChipKillPlus1OnlyPolymorphic(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	inj := faults.ChipKillPlus1{Geometry: dram.WordGeometry{SymbolBits: 8}}
	const trials = 10
	for _, c := range allCodes(t) {
		var wrong int
		for i := 0; i < trials; i++ {
			data := randLine(r)
			b := c.Encode(&data)
			inj.Inject(r, &b)
			got, outcome, _ := c.Decode(&b)
			if outcome != OK || got != data {
				wrong++
			}
		}
		if c.Name() == "Polymorphic" && wrong > 1 {
			t.Errorf("Polymorphic failed %d/%d ChipKill+1 faults", wrong, trials)
		}
		if c.Name() == "Reed-Solomon" && wrong < trials/2 {
			t.Errorf("RS should fail most ChipKill+1 faults, failed %d/%d", wrong, trials)
		}
	}
}
