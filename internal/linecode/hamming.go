package linecode

import (
	"encoding/binary"

	"polyecc/internal/dram"
	"polyecc/internal/hamming"
	"polyecc/internal/wideint"
)

// Hamming adapts the classic Hamming(72,64) Hsiao SEC-DED code to the
// cacheline interface: one codeword per 80-bit burst word, data in bits
// 0..63 and the 8 check bits in 64..71. The top 8 wire bits of each word
// are unused — a (72,64) code fills a 72-bit ECC DIMM bus, not DDR5's 80
// bits — so faults landing only there are invisible to the code, exactly
// as a narrower bus would never carry them. The adapter exists as the
// Table II baseline: multi-bit errors frequently alias to single-bit
// syndromes and are silently miscorrected (§III-A), which the cross-codec
// campaigns make measurable.
type Hamming struct {
	geo dram.WordGeometry
}

// NewHamming builds the SEC-DED baseline scheme.
func NewHamming() *Hamming {
	return &Hamming{geo: dram.WordGeometry{SymbolBits: 8}}
}

// Name implements Code.
func (*Hamming) Name() string { return "Hamming SEC-DED" }

// Encode implements Code.
func (c *Hamming) Encode(data *[LineBytes]byte) dram.Burst {
	var words [LineBytes / 8]wideint.U192
	for w := range words {
		cw := hamming.Encode(binary.LittleEndian.Uint64(data[8*w:]))
		words[w] = wideint.U192{W0: cw.Data, W1: uint64(cw.Check)}
	}
	var b dram.Burst
	c.geo.SetWords(&b, words[:])
	return b
}

// Decode implements Code.
func (c *Hamming) Decode(b *dram.Burst) ([LineBytes]byte, Outcome, int) {
	var data [LineBytes]byte
	outcome := OK
	var words [LineBytes / 8]wideint.U192
	c.geo.Words(b, words[:])
	for w, u := range words {
		cw := hamming.Codeword{Data: u.W0, Check: uint8(u.W1)}
		dec, st := hamming.Decode(cw)
		switch st {
		case hamming.Clean, hamming.CorrectedSingle:
			binary.LittleEndian.PutUint64(data[8*w:], dec.Data)
		default:
			// Detected but uncorrectable: keep the raw data for forensics.
			outcome = DUE
			binary.LittleEndian.PutUint64(data[8*w:], cw.Data)
		}
	}
	return data, outcome, 0
}
