package poly

import (
	"context"
	"sync"
)

// ParallelDecoder fans DecodeLine out over a worker pool — the shape of a
// memory controller serving several sub-channels at once, and the way the
// Monte Carlo experiments use multicore hosts (the paper ran its DEC
// campaign on 96 cores). A Code is immutable after construction, so the
// workers share it safely.
type ParallelDecoder struct {
	code    *Code
	workers int
}

// NewParallelDecoder builds a decoder pool; workers <= 0 selects a
// single worker.
func NewParallelDecoder(code *Code, workers int) *ParallelDecoder {
	if workers <= 0 {
		workers = 1
	}
	return &ParallelDecoder{code: code, workers: workers}
}

// Result pairs one decode's output with its input index.
type Result struct {
	Index  int
	Data   [LineBytes]byte
	Report Report
	// Err is non-nil when the decode of this line panicked; Data and
	// Report are zero. One poisoned line fails alone instead of taking
	// the whole batch's goroutine down.
	Err error
}

// DecodeAll decodes every line concurrently and returns results indexed
// like the input.
func (p *ParallelDecoder) DecodeAll(lines []Line) []Result {
	results, _ := p.DecodeAllContext(context.Background(), lines)
	return results
}

// decodeBatchSize is the lines-per-job granularity of DecodeAllContext:
// large enough that workers run the batched DecodeLines path with warm
// scratch state between channel operations, small enough that
// cancellation still reacts promptly.
const decodeBatchSize = 32

// span is one dispatched batch: lines [lo, hi).
type span struct{ lo, hi int }

// DecodeAllContext decodes lines concurrently until ctx is cancelled.
// Lines are dispatched in order as contiguous batches; on cancellation
// no new batch is started, in-flight batches finish, and the completed
// prefix of results is returned together with the context's error. A
// nil error means every line was decoded.
func (p *ParallelDecoder) DecodeAllContext(ctx context.Context, lines []Line) ([]Result, error) {
	results := make([]Result, len(lines))
	jobs := make(chan span)
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One Scratch per worker goroutine: the whole run decodes
			// without per-line heap traffic. A nil code keeps a nil
			// scratch — the decode then panics inside the per-line
			// recovery instead of killing the worker here. A latency
			// probe is single-goroutine like the Scratch, so each worker
			// decodes through its own fork (fresh uncontended stripes on
			// the same shared histograms).
			code := p.code
			var s *Scratch
			if code != nil {
				s = code.NewScratch()
				if lp := code.Latency(); lp != nil {
					code = code.WithLatency(lp.Fork())
				}
			}
			for sp := range jobs {
				p.decodeSpan(code, sp, lines, results, s)
			}
		}()
	}
	dispatched := 0
dispatch:
	for lo := 0; lo < len(lines); lo += decodeBatchSize {
		if ctx.Err() != nil {
			break
		}
		hi := min(lo+decodeBatchSize, len(lines))
		select {
		case jobs <- span{lo: lo, hi: hi}:
			dispatched = hi
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return results[:dispatched], err
	}
	return results, nil
}

// decodeSpan decodes one dispatched batch into its slice of results via
// the batched DecodeLines path, then rebases the per-batch indices to
// the full input. A nil code falls back to per-line decodes so each
// line's panic is still isolated into its own Err.
func (p *ParallelDecoder) decodeSpan(code *Code, sp span, lines []Line, results []Result, s *Scratch) {
	if code == nil {
		for i := sp.lo; i < sp.hi; i++ {
			results[i] = Result{Index: i}
			code.decodeLineInto(&results[i], lines[i], s)
		}
		return
	}
	out := code.DecodeLines(results[sp.lo:sp.lo:sp.hi], lines[sp.lo:sp.hi], s)
	for i := range out {
		out[i].Index = sp.lo + i
	}
}
