package variation

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// This file is the repository's one Monte-Carlo trial engine. Every
// campaign — MonteCarloCtx, Campaign.Run and core's reliability
// simulator — dispatches its trials through RunTrials, so worker sizing,
// per-trial RNG substreams, panic isolation and cancellation are defined
// once.

// Outcome is one trial's result as the engine recorded it.
type Outcome[T any] struct {
	// Value is what the trial returned, also alongside an error.
	Value T
	// Err is the trial's structured failure record; nil on success.
	Err *TrialError
	// Ran is false for a trial that never started because the context
	// was cancelled first.
	Ran bool
}

// RunTrials runs global trials [from, to) on GOMAXPROCS workers and
// returns their outcomes in trial order: slot k holds trial from+k.
// Workers receive runs of block consecutive trials (block <= 1 hands out
// single trials). Trial i draws from NewRNG(seed).Split(i), so every
// value depends only on (seed, i), never on scheduling or block. A
// returned *TrialError passes through unchanged, keeping the caller's
// phase tag; any other error, or a panic recovered in the worker, is
// recorded as a "trial"-phase *TrialError. Once ctx is cancelled no
// further trial starts; trials in flight finish. Each trial's wall time
// is observed into latency (nil disables it).
func RunTrials[T any](ctx context.Context, seed uint64, from, to, block int, latency *obs.Histogram,
	trial func(rng *mathx.RNG, i int) (T, error)) []Outcome[T] {
	n := to - from
	if n <= 0 {
		return nil
	}
	if block < 1 {
		block = 1
	}
	root := mathx.NewRNG(seed)
	outs := make([]Outcome[T], n)
	runOne := func(i int) {
		o := &outs[i-from]
		sp := obs.StartSpan(latency)
		defer func() {
			sp.End()
			if r := recover(); r != nil {
				o.Err = &TrialError{Index: i, Phase: "trial", Cause: &PanicError{Value: r, Stack: debug.Stack()}}
			}
		}()
		o.Ran = true
		v, err := trial(root.Split(uint64(i)), i)
		o.Value = v
		if err != nil {
			te, ok := err.(*TrialError)
			if !ok {
				te = &TrialError{Index: i, Phase: "trial", Cause: err}
			}
			o.Err = te
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if runs := (n + block - 1) / block; workers > runs {
		workers = runs
	}
	var wg sync.WaitGroup
	next := make(chan int) // first trial of the next run
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := range next {
				for i := first; i < min(first+block, to) && ctx.Err() == nil; i++ {
					runOne(i)
				}
			}
		}()
	}
dispatch:
	for first := from; first < to; first += block {
		select {
		case next <- first:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return outs
}

// Pool recycles per-trial working state — a built die, a parsed deck —
// across the trials of one campaign. An item serves at most Uses trials
// before it is dropped, bounding state drift; Uses <= 1 disables reuse.
// A trial that fails must not Put its item back: its state is suspect.
// Reset must return a used item to exactly its fresh-New state, which is
// what keeps results bit-identical for any reuse bound and any order in
// which workers happen to share items.
type Pool[T any] struct {
	// New builds a fresh item.
	New func() (T, error)
	// Reset prepares a used item for its next trial.
	Reset func(T)
	// Uses is the maximum number of trials one item serves.
	Uses int

	mu   sync.Mutex
	free []Lease[T]
}

// Lease is an item on loan from a Pool; hand it back with Put.
type Lease[T any] struct {
	V    T
	uses int
}

// Get hands out a reset free item, or a new one when none is free.
func (p *Pool[T]) Get() (Lease[T], error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		l := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.Reset(l.V)
		return l, nil
	}
	p.mu.Unlock()
	v, err := p.New()
	return Lease[T]{V: v}, err
}

// Put returns an item after a clean trial, dropping it once it has
// served Uses trials.
func (p *Pool[T]) Put(l Lease[T]) {
	l.uses++
	if l.uses >= p.Uses {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, l)
	p.mu.Unlock()
}
