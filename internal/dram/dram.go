// Package dram models the DDR5 memory organization of §II-A of the
// paper: a 40-bit ECC sub-channel built from ten x4 DRAM devices, moving
// a 64-byte cacheline plus redundancy as a 16-beat burst (Figure 1).
//
// All the compared codes — Polymorphic ECC, the SDDC Reed-Solomon code,
// Unity ECC and Bamboo ECC — protect the same 640 wire bits; they differ
// only in how they group those bits into codewords and symbols
// (Figure 2). This package owns the wire layout and the views each code
// takes of it, so that a single physical fault (a dead device, a stuck
// pin, a flipped cell) is seen by every code exactly as the hardware
// would present it.
package dram

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"polyecc/internal/wideint"
)

// Geometry of one DDR5 ECC sub-channel.
const (
	PinsPerDevice = 4  // x4 DRAMs
	Devices       = 10 // 8 data + 2 ECC devices (Figure 1, bottom)
	Pins          = PinsPerDevice * Devices
	Beats         = 16           // burst length BL16
	BurstBits     = Pins * Beats // 640: 512 data + 128 redundancy
	BurstBytes    = BurstBits / 8
)

// Burst is the 640 bits a sub-channel transfers for one cacheline,
// including redundancy. Bit (beat, pin) is stored at index beat*Pins+pin.
type Burst [BurstBytes]byte

// BitIndex maps a (beat, pin) coordinate to a flat bit index.
func BitIndex(beat, pin int) int { return beat*Pins + pin }

// Bit returns the wire bit at (beat, pin).
func (b *Burst) Bit(beat, pin int) uint {
	i := BitIndex(beat, pin)
	return uint(b[i/8]>>(i%8)) & 1
}

// SetBit sets the wire bit at (beat, pin).
func (b *Burst) SetBit(beat, pin int, v uint) {
	i := BitIndex(beat, pin)
	if v == 0 {
		b[i/8] &^= 1 << (i % 8)
	} else {
		b[i/8] |= 1 << (i % 8)
	}
}

// FlipBit inverts the wire bit at (beat, pin).
func (b *Burst) FlipBit(beat, pin int) {
	i := BitIndex(beat, pin)
	b[i/8] ^= 1 << (i % 8)
}

// Xor applies a flip mask to the burst, modelling in-memory corruption.
func (b *Burst) Xor(mask *Burst) {
	for i := range b {
		b[i] ^= mask[i]
	}
}

// IsZero reports whether no bit is set (useful for masks).
func (b *Burst) IsZero() bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits.
func (b *Burst) OnesCount() int {
	n := 0
	for _, v := range b {
		n += bits.OnesCount8(v)
	}
	return n
}

// DeviceOfPin returns the device that drives a pin.
func DeviceOfPin(pin int) int { return pin / PinsPerDevice }

// --- Polymorphic ECC / symbol-folded views -------------------------------

// WordGeometry describes a symbol-folded codeword view: symbolBits bits
// per device gathered across symbolBits/PinsPerDevice consecutive beats.
// The 8-bit-symbol view yields eight 80-bit codewords per burst; the
// 16-bit view yields four 160-bit codewords (§VIII-A).
type WordGeometry struct {
	SymbolBits int
}

// BeatsPerWord returns how many beats one codeword spans.
func (g WordGeometry) BeatsPerWord() int { return g.SymbolBits / PinsPerDevice }

// WordsPerBurst returns how many codewords one burst carries.
func (g WordGeometry) WordsPerBurst() int { return Beats / g.BeatsPerWord() }

// WordBits returns the codeword width in bits.
func (g WordGeometry) WordBits() int { return Devices * g.SymbolBits }

// Validate checks the geometry is one the channel supports: 4-, 8- or
// 16-bit symbols (whole beats per symbol, codewords that fit a U192).
func (g WordGeometry) Validate() error {
	if g.SymbolBits%PinsPerDevice != 0 || g.SymbolBits <= 0 || Beats%g.BeatsPerWord() != 0 || g.WordBits() > 192 {
		return fmt.Errorf("dram: unsupported symbol width %d", g.SymbolBits)
	}
	return nil
}

// A beat row is the 40 wire bits of one beat, pin p at bit p. Pins fill
// whole bytes, so beat r is exactly bytes rowBytes*r .. rowBytes*r+4.
const rowBytes = Pins / 8

func (b *Burst) row(beat int) uint64 {
	o := beat * rowBytes
	return uint64(binary.LittleEndian.Uint32(b[o:])) | uint64(b[o+4])<<32
}

func (b *Burst) setRow(beat int, v uint64) {
	o := beat * rowBytes
	binary.LittleEndian.PutUint32(b[o:], uint32(v))
	b[o+4] = byte(v >> 32)
}

// spread8 moves nibble t of the low 32 bits of x to bit 8t, and spread16
// nibble t of the low 16 bits to bit 16t: the device nibbles of a beat
// row land at the bottom of their symbol slots in one 64-bit limb.
// compact8 and compact16 are the inverses, ignoring every bit outside
// those nibbles.
func spread8(x uint64) uint64 {
	x = (x&0xffffffff | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	return (x | x<<4) & 0x0f0f0f0f0f0f0f0f
}

func spread16(x uint64) uint64 {
	x = (x&0xffff | x<<24) & 0x000000ff000000ff
	return (x | x<<12) & 0x000f000f000f000f
}

func compact8(x uint64) uint64 {
	x &= 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	return (x | x>>16) & 0xffffffff
}

func compact16(x uint64) uint64 {
	x &= 0x000f000f000f000f
	x = (x | x>>12) & 0x000000ff000000ff
	return (x | x>>24) & 0xffff
}

// Word extracts codeword w of the burst as an integer whose bit layout
// places symbol s at bit offset s*SymbolBits: symbol s = device s, filled
// beat-major (Figure 2(b): an 8-bit symbol is nibble s of the word's
// first beat row below nibble s of its second). Each beat row is loaded
// once and its ten nibbles spread into their symbol slots a 64-bit limb
// at a time; a nibble never straddles a limb.
func (g WordGeometry) Word(b *Burst, w int) wideint.U192 {
	switch g.SymbolBits {
	case 4:
		return wideint.U192{W0: b.row(w)}
	case 8:
		r0, r1 := b.row(2*w), b.row(2*w+1)
		return wideint.U192{W0: spread8(r0) | spread8(r1)<<4, W1: spread8(r0>>32) | spread8(r1>>32)<<4}
	case 16:
		var u wideint.U192
		for j := uint(0); j < 4; j++ {
			r := b.row(4*w + int(j))
			u.W0 |= spread16(r) << (4 * j)
			u.W1 |= spread16(r>>16) << (4 * j)
			u.W2 |= spread16(r>>32) << (4 * j)
		}
		return u
	}
	panic(fmt.Sprintf("dram: unsupported symbol width %d", g.SymbolBits))
}

// SetWord stores an integer codeword back into the burst, overwriting
// the codeword's beat rows whole; bits at or above WordBits are ignored.
func (g WordGeometry) SetWord(b *Burst, w int, u wideint.U192) {
	switch g.SymbolBits {
	case 4:
		b.setRow(w, u.W0)
	case 8:
		b.setRow(2*w, compact8(u.W0)|compact8(u.W1)<<32)
		b.setRow(2*w+1, compact8(u.W0>>4)|compact8(u.W1>>4)<<32)
	case 16:
		for j := uint(0); j < 4; j++ {
			b.setRow(4*w+int(j), compact16(u.W0>>(4*j))|compact16(u.W1>>(4*j))<<16|compact16(u.W2>>(4*j))<<32)
		}
	default:
		panic(fmt.Sprintf("dram: unsupported symbol width %d", g.SymbolBits))
	}
}

// Words extracts the burst's codewords into dst in order; dst holds
// WordsPerBurst words.
func (g WordGeometry) Words(b *Burst, dst []wideint.U192) {
	for w := range dst {
		dst[w] = g.Word(b, w)
	}
}

// SetWords stores src's codewords into the burst in order.
func (g WordGeometry) SetWords(b *Burst, src []wideint.U192) {
	for w, u := range src {
		g.SetWord(b, w, u)
	}
}

// WordBytes extracts codeword w as a byte slice in symbol order; for the
// 8-bit-symbol view this is the 10-symbol slice the SDDC Reed-Solomon and
// Unity decoders consume (symbol s = device s).
func (g WordGeometry) WordBytes(b *Burst, w int) []byte {
	u := g.Word(b, w)
	nBytes := g.WordBits() / 8
	out := make([]byte, nBytes)
	for i := range out {
		out[i] = byte(u.Field(8*i, 8))
	}
	return out
}

// SetWordBytes stores a byte-sliced codeword back into the burst.
func (g WordGeometry) SetWordBytes(b *Burst, w int, bytes []byte) {
	var u wideint.U192
	for i, v := range bytes {
		u = u.WithField(8*i, 8, uint64(v))
	}
	g.SetWord(b, w, u)
}

// --- Bamboo (pin-aligned) view -------------------------------------------

// BambooWordsPerBurst is how many pin-aligned codewords one burst holds:
// Bamboo uses half-cacheline codewords with 8-bit symbols (§VII-A), each
// spanning 8 beats so that symbol p is exactly the 8 bits pin p supplies.
const BambooWordsPerBurst = 2

// BambooBeats is the number of beats one Bamboo codeword spans.
const BambooBeats = Beats / BambooWordsPerBurst

// BambooWord extracts pin-aligned codeword h (0 or 1): 40 symbols, symbol
// p gathering pin p across the 8 beats of that half.
func BambooWord(b *Burst, h int) []byte {
	out := make([]byte, Pins)
	for k := 0; k < BambooBeats; k++ {
		row := b.row(h*BambooBeats + k)
		for p := range out {
			out[p] |= byte(row>>p&1) << k
		}
	}
	return out
}

// SetBambooWord stores a pin-aligned codeword back into the burst.
func SetBambooWord(b *Burst, h int, sym []byte) {
	for p := 0; p < Pins; p++ {
		for k := 0; k < BambooBeats; k++ {
			b.SetBit(h*BambooBeats+k, p, uint(sym[p]>>uint(k))&1)
		}
	}
}

// --- Physical fault-mask builders ----------------------------------------

// DeviceMask returns a flip mask covering the given bit pattern on one
// device: for each beat in [beatLo, beatHi), pattern bits 0..3 select
// which of the device's pins flip in that beat. patterns[beat-beatLo]
// supplies the per-beat nibble.
func DeviceMask(dev int, beatLo, beatHi int, patterns []byte) Burst {
	var m Burst
	for beat := beatLo; beat < beatHi; beat++ {
		m.setRow(beat, uint64(patterns[beat-beatLo]&0xf)<<(dev*PinsPerDevice))
	}
	return m
}

// PinMask returns a flip mask with the given pin flipped on every beat in
// [beatLo, beatHi) — the failed-IO-pin fault of the ChipKill+1 model.
func PinMask(pin, beatLo, beatHi int) Burst {
	var m Burst
	for beat := beatLo; beat < beatHi; beat++ {
		m.SetBit(beat, pin, 1)
	}
	return m
}

// BitMask returns a mask with a single wire bit set.
func BitMask(beat, pin int) Burst {
	var m Burst
	m.SetBit(beat, pin, 1)
	return m
}
