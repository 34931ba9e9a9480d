package main

import (
	"sort"
	"time"
)

// tracer records the spans one goroutine opens around its calls into
// the layers. Spans nest through a stack, so a span's self time is its
// duration minus the part its child spans cover. Spans are aggregated
// per layer name in memory as they close; nothing is written while the
// workload runs.
type tracer struct {
	base  time.Time
	stack []openSpan
	self  map[string]*layerTotal
}

type openSpan struct {
	start    int64
	children int64
}

// layerTotal accumulates one layer's closed spans.
type layerTotal struct {
	Calls  int64
	SelfNs int64
	Items  int64 // work units the spans covered (lines, events), when a layer counts them
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), self: map[string]*layerTotal{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span; the layer is named when it ends, because some
// layers (a decode's outcome class) are known only after the call.
func (t *tracer) begin() {
	t.stack = append(t.stack, openSpan{start: t.now()})
}

// end closes the innermost span as one call of layer covering items
// work units.
func (t *tracer) end(layer string, items int64) {
	end := t.now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end - top.start
	lt := t.self[layer]
	if lt == nil {
		lt = &layerTotal{}
		t.self[layer] = lt
	}
	lt.Calls++
	lt.SelfNs += d - top.children
	lt.Items += items
	if n := len(t.stack); n > 0 {
		t.stack[n-1].children += d
	}
}

// merge folds other's per-layer totals into t.
func (t *tracer) merge(other *tracer) {
	for name, o := range other.self {
		lt := t.self[name]
		if lt == nil {
			lt = &layerTotal{}
			t.self[name] = lt
		}
		lt.Calls += o.Calls
		lt.SelfNs += o.SelfNs
		lt.Items += o.Items
	}
}

// add records a layer total measured outside the span stack (the
// campaign runner's lanes, whose self time is derived from the run's
// wall time).
func (t *tracer) add(layer string, calls, selfNs int64) {
	lt := t.self[layer]
	if lt == nil {
		lt = &layerTotal{}
		t.self[layer] = lt
	}
	lt.Calls += calls
	lt.SelfNs += selfNs
}

func (t *tracer) layers() []string {
	names := make([]string, 0, len(t.self))
	for name := range t.self {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// perCall is a layer's mean self time per call in ns, and whether the
// layer was called at all.
func (t *tracer) perCall(layer string) (float64, bool) {
	lt := t.self[layer]
	if lt == nil || lt.Calls == 0 {
		return 0, false
	}
	return float64(lt.SelfNs) / float64(lt.Calls), true
}

// perItem is a layer's self time per covered work unit in ns.
func (t *tracer) perItem(layer string) (float64, bool) {
	lt := t.self[layer]
	if lt == nil || lt.Items == 0 {
		return 0, false
	}
	return float64(lt.SelfNs) / float64(lt.Items), true
}
