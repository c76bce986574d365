package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// This file is the load generator: seeded schedules, an open loop paced by
// nanosleep, a closed loop, and exact quantiles over raw samples.

// poissonArrivals returns the due offsets of a Poisson process with the
// given rate (per second) over d.
func poissonArrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*1e9))
	}
	return due
}

// poissonCount returns the due offsets of the first n arrivals of a
// Poisson process with the given rate (per second).
func poissonCount(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * 1e9)
	}
	return due
}

// opFunc runs operation i of a phase on worker w and reports whether it
// succeeded with a correct output.
type opFunc func(w, i int) bool

// timing holds one phase's per-operation timestamps in nanoseconds from the
// phase start: due (in a closed loop, the send time), sent and done.
// Operations that never ran keep sent = -1.
type timing struct {
	start time.Time
	due   []int64
	sent  []int64
	done  []int64
	ok    []bool
}

func newTiming(n int) *timing {
	t := &timing{
		due:  make([]int64, n),
		sent: make([]int64, n),
		done: make([]int64, n),
		ok:   make([]bool, n),
	}
	for i := range t.sent {
		t.sent[i] = -1
	}
	return t
}

// ran, succeeded and failed count the operations that were started, that
// returned a correct output, and that were started but did not.
func (t *timing) ran() int64 {
	var n int64
	for _, s := range t.sent {
		if s >= 0 {
			n++
		}
	}
	return n
}

func (t *timing) succeeded() int64 {
	var n int64
	for _, ok := range t.ok {
		if ok {
			n++
		}
	}
	return n
}

func (t *timing) failed() int64 { return t.ran() - t.succeeded() }

// latencies returns done − due of every operation that ran, in
// nanoseconds: the wait a late send or a busy worker imposed counts.
func (t *timing) latencies() []float64 {
	return t.spans(t.due, t.done)
}

// lateness returns sent − due of every operation that ran: how late the
// generator itself was.
func (t *timing) lateness() []float64 {
	return t.spans(t.due, t.sent)
}

// serviceTimes returns done − sent of every operation that ran.
func (t *timing) serviceTimes() []float64 {
	return t.spans(t.sent, t.done)
}

func (t *timing) spans(from, to []int64) []float64 {
	out := make([]float64, 0, len(t.sent))
	for i, s := range t.sent {
		if s >= 0 {
			out = append(out, float64(to[i]-from[i]))
		}
	}
	return out
}

// throughput is the number of operations per second that completed with a
// correct output, from the phase start to the last completion.
func (t *timing) throughput() float64 {
	var last int64
	for i, s := range t.sent {
		if s >= 0 && t.done[i] > last {
			last = t.done[i]
		}
	}
	if last <= 0 {
		return 0
	}
	return float64(t.succeeded()) / (float64(last) / 1e9)
}

// openLoop runs one operation per due offset, each sent at its due time
// (or as soon as one of the workers is free after it) regardless of how
// earlier operations fared. Each worker is locked to its OS thread with a
// 1 ns timer slack and paced with nanosleep: a sub-millisecond time.Sleep
// rounds up to the netpoller's tick when the generator is otherwise idle,
// which would make the generator, not the system, set the latency.
func openLoop(ctx context.Context, due []time.Duration, workers int, do opFunc) *timing {
	t := newTiming(len(due))
	for i, d := range due {
		t.due[i] = int64(d)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t.start = time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer lockPacer()()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				sleepUntil(t.start.Add(due[i]))
				t.sent[i] = int64(time.Since(t.start))
				t.ok[i] = do(w, i)
				t.done[i] = int64(time.Since(t.start))
			}
		}(w)
	}
	wg.Wait()
	return t
}

// closedLoop runs operations 0, 1, ... from workers goroutines, each
// starting its next operation when the previous one returns, until d has
// passed or n operations have started.
func closedLoop(ctx context.Context, n int, d time.Duration, workers int, do opFunc) *timing {
	t := newTiming(n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t.start = time.Now()
	deadline := t.start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t.sent[i] = int64(time.Since(t.start))
				t.due[i] = t.sent[i]
				t.ok[i] = do(w, i)
				t.done[i] = int64(time.Since(t.start))
			}
		}(w)
	}
	wg.Wait()
	return t
}

// Linux prctl options for the per-thread timer slack.
const (
	prSetTimerSlack = 29
	prGetTimerSlack = 30
)

// lockPacer locks the calling goroutine to its thread and sets the
// thread's timer slack to 1 ns, so nanosleep wakes within microseconds of
// its deadline instead of the default 50 µs. The returned function restores
// the slack and unlocks; call it before the goroutine exits so the thread
// returns to the pool instead of being destroyed.
func lockPacer() func() {
	runtime.LockOSThread()
	old, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return func() {
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, old, 0)
		runtime.UnlockOSThread()
	}
}

// sleepUntil blocks the thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks of the sorted samples (NaN for no samples). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	h := q * float64(len(xs)-1)
	lo := int(math.Floor(h))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

// mean returns the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the median of xs, sorting it in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }
