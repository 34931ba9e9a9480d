package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"

	"polyecc/internal/poly"
)

// quantile is the linearly interpolated q-quantile of xs (the
// "inclusive" method); xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above v, the support a
// percentile has.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the process's cumulative heap allocation, read
// without stopping the world.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digest is a workload's outcome tally: the ground-truth verdict of
// every operation, corrections per fault model, and the correction work
// spent. Two runs of one seed must produce identical digests.
type digest struct {
	Ops        int64
	Clean      int64
	Corrected  int64
	DUE        int64
	SDC        int64 // data returned or written back differs from ground truth
	Fenced     int64 // accesses the controller blocked before any decode
	Panics     int64
	Errors     int64 // outcome-check mismatches
	Iterations int64 // MAC checks (correction trials) over all decodes
	PerModel   [poly.NumFaultModels]int64
}

func (d *digest) add(o digest) {
	d.Ops += o.Ops
	d.Clean += o.Clean
	d.Corrected += o.Corrected
	d.DUE += o.DUE
	d.SDC += o.SDC
	d.Fenced += o.Fenced
	d.Panics += o.Panics
	d.Errors += o.Errors
	d.Iterations += o.Iterations
	for m, n := range o.PerModel {
		d.PerModel[m] += n
	}
}

func (d digest) failures() int64 { return d.SDC + d.Panics + d.Errors }

// String is the canonical one-line form two runs are compared by.
func (d digest) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d clean=%d corrected=%d due=%d sdc=%d fenced=%d panics=%d errors=%d iterations=%d",
		d.Ops, d.Clean, d.Corrected, d.DUE, d.SDC, d.Fenced, d.Panics, d.Errors, d.Iterations)
	for m, n := range d.PerModel {
		fmt.Fprintf(&b, " %s=%d", poly.FaultModel(m), n)
	}
	return b.String()
}

// modelKeys are the fault models' metric suffixes, indexed by model.
var modelKeys = [poly.NumFaultModels]string{
	poly.ModelChipKill:      "chipkill",
	poly.ModelSSC:           "ssc",
	poly.ModelDEC:           "dec",
	poly.ModelBFBF:          "bfbf",
	poly.ModelChipKillPlus1: "chipkill1",
}

// Span names that depend on a fault model, built once so that naming a
// span allocates nothing.
var injectLayers, correctedLayers [poly.NumFaultModels]string

func init() {
	for m, k := range modelKeys {
		injectLayers[m] = "faults.inject." + k
		correctedLayers[m] = "poly.decode.corrected." + k
	}
}

// modelOf maps a fault model or injector display name ("BF+BF") to its
// model.
func modelOf(name string) poly.FaultModel {
	m, ok := poly.ModelFromName(name)
	if !ok {
		panic("unknown fault model " + name)
	}
	return m
}

// splitmix64 derives well-spread per-batch seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// batchSeed is the seed of batch i of a run with the given seed.
func batchSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed)*0x100000001b3+uint64(i)) >> 1)
}
