package dram

import (
	"fmt"
	"math/rand"
	"testing"

	"polyecc/internal/wideint"
)

func randBurst(r *rand.Rand) Burst {
	var b Burst
	r.Read(b[:])
	return b
}

func TestBitSetFlip(t *testing.T) {
	var b Burst
	b.SetBit(3, 17, 1)
	if b.Bit(3, 17) != 1 {
		t.Fatal("SetBit/Bit broken")
	}
	if b.OnesCount() != 1 {
		t.Fatal("OnesCount wrong")
	}
	b.FlipBit(3, 17)
	if !b.IsZero() {
		t.Fatal("FlipBit did not clear")
	}
}

func TestBitIndexDisjoint(t *testing.T) {
	seen := make(map[int]bool)
	for beat := 0; beat < Beats; beat++ {
		for pin := 0; pin < Pins; pin++ {
			i := BitIndex(beat, pin)
			if i < 0 || i >= BurstBits || seen[i] {
				t.Fatalf("BitIndex(%d,%d) = %d invalid or duplicate", beat, pin, i)
			}
			seen[i] = true
		}
	}
}

func TestXor(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	b := randBurst(r)
	orig := b
	m := randBurst(r)
	b.Xor(&m)
	b.Xor(&m)
	if b != orig {
		t.Fatal("double Xor should restore")
	}
}

func TestWordGeometryValidate(t *testing.T) {
	if err := (WordGeometry{SymbolBits: 8}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (WordGeometry{SymbolBits: 16}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (WordGeometry{SymbolBits: 4}).Validate(); err != nil {
		t.Error(err)
	}
	// 32- and 64-bit symbols tile the burst but overflow a U192 codeword.
	for _, s := range []int{0, 3, 5, 7, 12, 32, 64} {
		if err := (WordGeometry{SymbolBits: s}).Validate(); err == nil {
			t.Errorf("symbol width %d should be invalid", s)
		}
	}
}

func TestWordCounts(t *testing.T) {
	g8 := WordGeometry{SymbolBits: 8}
	if g8.WordsPerBurst() != 8 || g8.WordBits() != 80 || g8.BeatsPerWord() != 2 {
		t.Fatalf("8-bit geometry wrong: %d %d %d", g8.WordsPerBurst(), g8.WordBits(), g8.BeatsPerWord())
	}
	g16 := WordGeometry{SymbolBits: 16}
	if g16.WordsPerBurst() != 4 || g16.WordBits() != 160 || g16.BeatsPerWord() != 4 {
		t.Fatalf("16-bit geometry wrong: %d %d %d", g16.WordsPerBurst(), g16.WordBits(), g16.BeatsPerWord())
	}
}

// geometries are the symbol-folded views Validate accepts.
var geometries = []WordGeometry{{SymbolBits: 4}, {SymbolBits: 8}, {SymbolBits: 16}}

// wireCoord maps bit i of codeword w to its (beat, pin) wire coordinate
// straight from Figure 2(b): symbol s = device s, filled beat-major. It
// and the two bitwise helpers below are the reference the word-parallel
// Word/SetWord are held to.
func wireCoord(g WordGeometry, w, i int) (beat, pin int) {
	s, k := i/g.SymbolBits, i%g.SymbolBits
	return w*g.BeatsPerWord() + k/PinsPerDevice, s*PinsPerDevice + k%PinsPerDevice
}

func oracleWord(g WordGeometry, b *Burst, w int) wideint.U192 {
	var u wideint.U192
	for i := 0; i < g.WordBits(); i++ {
		u = u.SetBit(i, b.Bit(wireCoord(g, w, i)))
	}
	return u
}

func oracleSetWord(g WordGeometry, b *Burst, w int, u wideint.U192) {
	for i := 0; i < g.WordBits(); i++ {
		beat, pin := wireCoord(g, w, i)
		b.SetBit(beat, pin, u.Bit(i))
	}
}

// checkOracle asserts Word and SetWord match the bitwise reference on
// every word of b: extraction bit for bit, and storing u over b's
// current contents (so SetWord must clear bits as well as set them).
func checkOracle(t testing.TB, g WordGeometry, b *Burst, u wideint.U192) {
	t.Helper()
	for w := 0; w < g.WordsPerBurst(); w++ {
		if got, want := g.Word(b, w), oracleWord(g, b, w); got != want {
			t.Fatalf("symbolBits=%d word %d: Word %v, bitwise %v (burst %x)", g.SymbolBits, w, got, want, b[:])
		}
		got, want := *b, *b
		g.SetWord(&got, w, u)
		oracleSetWord(g, &want, w, u)
		if got != want {
			t.Fatalf("symbolBits=%d word %d: SetWord(%v) diverges from bitwise (burst %x)", g.SymbolBits, w, u, b[:])
		}
	}
}

func TestWordMatchesBitwiseOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, g := range geometries {
		// Every single-bit burst, stored over by a random word.
		for beat := 0; beat < Beats; beat++ {
			for pin := 0; pin < Pins; pin++ {
				b := BitMask(beat, pin)
				checkOracle(t, g, &b, wideint.U192{W0: r.Uint64(), W1: r.Uint64(), W2: r.Uint64()})
			}
		}
		// Every single-bit word stored over a random non-zero burst.
		for i := 0; i < g.WordBits(); i++ {
			b := randBurst(r)
			checkOracle(t, g, &b, wideint.U192{}.SetBit(i, 1))
		}
		for trial := 0; trial < 10000; trial++ {
			b := randBurst(r)
			checkOracle(t, g, &b, wideint.U192{W0: r.Uint64(), W1: r.Uint64(), W2: r.Uint64()})
		}
	}
}

// FuzzWordRoundTrip holds Word/SetWord to the bitwise reference on
// arbitrary bursts, and Words/SetWords to a lossless round trip.
func FuzzWordRoundTrip(f *testing.F) {
	f.Add(make([]byte, BurstBytes))
	f.Add([]byte{0xff, 0x01, 0x80, 0x5a})
	full := make([]byte, BurstBytes)
	for i := range full {
		full[i] = byte(i*37 + 11)
	}
	f.Add(full)
	f.Fuzz(func(t *testing.T, in []byte) {
		var b, over Burst
		copy(b[:], in)
		for i := range over {
			over[i] = ^b[len(b)-1-i]
		}
		for _, g := range geometries {
			checkOracle(t, g, &b, g.Word(&over, 0))
			words := make([]wideint.U192, g.WordsPerBurst())
			g.Words(&b, words)
			got := over
			g.SetWords(&got, words)
			if got != b {
				t.Fatalf("symbolBits=%d: Words/SetWords not a round trip", g.SymbolBits)
			}
		}
	})
}

func TestWordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, g := range []WordGeometry{{SymbolBits: 8}, {SymbolBits: 16}} {
		for trial := 0; trial < 50; trial++ {
			b := randBurst(r)
			orig := b
			for w := 0; w < g.WordsPerBurst(); w++ {
				u := g.Word(&b, w)
				g.SetWord(&b, w, u)
			}
			if b != orig {
				t.Fatalf("symbolBits=%d: Word/SetWord not a round trip", g.SymbolBits)
			}
		}
	}
}

// Words must tile the burst: writing all words of random values and
// reading them back recovers the values, and every wire bit is covered.
func TestWordsTileBurst(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := WordGeometry{SymbolBits: 8}
	var b Burst
	want := make([]wideint.U192, g.WordsPerBurst())
	for w := range want {
		want[w] = wideint.U192{W0: r.Uint64(), W1: uint64(r.Intn(1 << 16))}
		g.SetWord(&b, w, want[w])
	}
	for w := range want {
		if g.Word(&b, w) != want[w] {
			t.Fatalf("word %d mismatch", w)
		}
	}
	// Coverage: setting every word to all-ones must set all 640 bits.
	all := wideint.Mask(0, 80)
	for w := 0; w < g.WordsPerBurst(); w++ {
		g.SetWord(&b, w, all)
	}
	if b.OnesCount() != BurstBits {
		t.Fatalf("words do not tile the burst: %d bits covered", b.OnesCount())
	}
}

// A whole-device failure must corrupt exactly one symbol of each codeword
// — the SDDC property of Figure 2 that symbol folding guarantees.
func TestDeviceFailureHitsOneSymbolPerWord(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, g := range []WordGeometry{{SymbolBits: 8}, {SymbolBits: 16}} {
		for dev := 0; dev < Devices; dev++ {
			b := randBurst(r)
			orig := b
			// Corrupt the device on every beat with random nibbles.
			patterns := make([]byte, Beats)
			for i := range patterns {
				patterns[i] = byte(1 + r.Intn(15))
			}
			m := DeviceMask(dev, 0, Beats, patterns)
			b.Xor(&m)
			for w := 0; w < g.WordsPerBurst(); w++ {
				diff := g.Word(&b, w).Xor(g.Word(&orig, w))
				for s := 0; s < Devices; s++ {
					f := diff.Field(s*g.SymbolBits, g.SymbolBits)
					if s == dev && f == 0 {
						t.Fatalf("symbolBits=%d dev=%d word=%d: failed device left its symbol intact", g.SymbolBits, dev, w)
					}
					if s != dev && f != 0 {
						t.Fatalf("symbolBits=%d dev=%d word=%d: corruption leaked into symbol %d", g.SymbolBits, dev, w, s)
					}
				}
			}
		}
	}
}

// A failed pin must hit bits k and k+4 of its device's symbol in the
// 8-bit view — the in-symbol pattern the ChipKill+1 fault model uses.
func TestPinFaultPattern(t *testing.T) {
	g := WordGeometry{SymbolBits: 8}
	for pin := 0; pin < Pins; pin++ {
		var b Burst
		m := PinMask(pin, 0, Beats)
		b.Xor(&m)
		dev := DeviceOfPin(pin)
		k := pin % PinsPerDevice
		for w := 0; w < g.WordsPerBurst(); w++ {
			u := g.Word(&b, w)
			sym := u.Field(dev*8, 8)
			want := uint64(1)<<uint(k) | 1<<uint(k+4)
			if sym != want {
				t.Fatalf("pin %d word %d: symbol pattern %08b, want %08b", pin, w, sym, want)
			}
		}
	}
}

func TestWordBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := WordGeometry{SymbolBits: 8}
	b := randBurst(r)
	for w := 0; w < g.WordsPerBurst(); w++ {
		bytes := g.WordBytes(&b, w)
		if len(bytes) != 10 {
			t.Fatalf("WordBytes length %d", len(bytes))
		}
		g.SetWordBytes(&b, w, bytes)
		got := g.WordBytes(&b, w)
		for i := range bytes {
			if got[i] != bytes[i] {
				t.Fatal("WordBytes round trip failed")
			}
		}
	}
}

func TestBambooWordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	b := randBurst(r)
	orig := b
	for h := 0; h < BambooWordsPerBurst; h++ {
		SetBambooWord(&b, h, BambooWord(&b, h))
	}
	if b != orig {
		t.Fatal("Bamboo round trip failed")
	}
}

// In the Bamboo view, a failed pin corrupts exactly one symbol per
// codeword, and a failed device corrupts exactly PinsPerDevice symbols —
// that is why Bamboo needs t=4 to give ChipKill (§VII-A).
func TestBambooPinAlignment(t *testing.T) {
	var b Burst
	m := PinMask(13, 0, Beats)
	b.Xor(&m)
	for h := 0; h < BambooWordsPerBurst; h++ {
		sym := BambooWord(&b, h)
		for p := 0; p < Pins; p++ {
			if (p == 13) != (sym[p] != 0) {
				t.Fatalf("half %d: pin fault misaligned at symbol %d", h, p)
			}
			if p == 13 && sym[p] != 0xff {
				t.Fatalf("half %d: stuck pin should corrupt all 8 beats, got %08b", h, sym[p])
			}
		}
	}
	// Device failure: exactly 4 corrupted bamboo symbols.
	var b2 Burst
	patterns := make([]byte, Beats)
	for i := range patterns {
		patterns[i] = 0xf
	}
	dm := DeviceMask(3, 0, Beats, patterns)
	b2.Xor(&dm)
	sym := BambooWord(&b2, 0)
	n := 0
	for _, v := range sym {
		if v != 0 {
			n++
		}
	}
	if n != PinsPerDevice {
		t.Fatalf("device failure corrupted %d bamboo symbols, want %d", n, PinsPerDevice)
	}
}

func TestBitMask(t *testing.T) {
	m := BitMask(5, 21)
	if m.OnesCount() != 1 || m.Bit(5, 21) != 1 {
		t.Fatal("BitMask wrong")
	}
}

func TestDeviceOfPin(t *testing.T) {
	if DeviceOfPin(0) != 0 || DeviceOfPin(3) != 0 || DeviceOfPin(4) != 1 || DeviceOfPin(39) != 9 {
		t.Fatal("DeviceOfPin wrong")
	}
}

func BenchmarkWords(b *testing.B) {
	var burst Burst
	for i := range burst {
		burst[i] = byte(i)
	}
	for _, g := range geometries {
		words := make([]wideint.U192, g.WordsPerBurst())
		b.Run(fmt.Sprintf("s%d/from-burst", g.SymbolBits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Words(&burst, words)
			}
		})
		b.Run(fmt.Sprintf("s%d/to-burst", g.SymbolBits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.SetWords(&burst, words)
			}
		})
	}
}

func BenchmarkWordExtract8(b *testing.B) {
	g := WordGeometry{SymbolBits: 8}
	var burst Burst
	for i := range burst {
		burst[i] = byte(i)
	}
	for i := 0; i < b.N; i++ {
		g.Word(&burst, i%8)
	}
}
