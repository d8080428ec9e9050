// Package sweep runs the laboratory's experiment fan-outs on a
// deterministic work-stealing scheduler.
//
// The fixed FIFO pools it replaces had a straggler problem: the
// collector sweep submits cheap experiments first (Serial, ParNew, …)
// and the expensive concurrent collectors (CMS, G1) last, so near the
// end of a sweep one worker grinds through a long simulation while the
// rest sit idle. The sweep scheduler fixes that two ways:
//
//   - Longest-expected-first: when the caller supplies a per-task cost
//     estimate, tasks are dealt in descending cost order, the classic
//     LPT bound on makespan.
//   - Work stealing: each worker owns a deque dealt round-robin from
//     that order; an owner pops its largest remaining task from the
//     front, and a worker that runs dry steals the smallest task from
//     the back of a victim's deque, chosen by a seeded generator.
//
// Determinism is preserved where it matters — in the OUTPUT, not the
// schedule. Every task writes its result into caller-owned slices at
// its own index and errors are selected by lowest index, so rendered
// experiment bytes are identical at any worker count (1, 4, 16, …)
// even though the execution interleaving differs run to run.
package sweep

import (
	"runtime"
	"sort"
	"sync"
)

// Options configures one static sweep.
type Options struct {
	// Workers bounds the concurrency; values <= 0 select GOMAXPROCS.
	Workers int
	// Seed drives victim selection when a worker steals. Any value
	// (including 0) is valid; runs differ only in schedule, never in
	// output.
	Seed uint64
	// Cost, when non-nil, estimates task i's expected duration in
	// arbitrary units. Tasks are dealt longest-expected-first; ties keep
	// ascending index order. Nil deals tasks in index order.
	Cost func(i int) float64
}

// ResolveWorkers returns the worker count a Workers setting selects:
// the setting itself when positive, GOMAXPROCS otherwise.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Run executes fn(i) for every i in [0, n) and returns the first error
// in index order (not completion order). With one worker, tasks run
// sequentially in deal order and Run stops at the first error; with
// more, every task runs and the lowest-index error is selected
// afterwards, matching the pools it replaced.
func Run(opts Options, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := ResolveWorkers(opts.Workers)
	if workers > n {
		workers = n
	}
	order := schedule(n, opts.Cost)
	if workers == 1 {
		for _, i := range order {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	// Deal the ordered tasks round-robin: worker w's deque holds
	// order[w], order[w+workers], … — its private slice of the
	// longest-first ranking, largest at the front.
	deques := make([]deque, workers)
	for w := 0; w < workers; w++ {
		var own []int
		for i := w; i < n; i += workers {
			own = append(own, order[i])
		}
		deques[w].tasks = own
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			rng := stealRng{state: splitmix64(opts.Seed + uint64(self) + 1)}
			for {
				i, ok := deques[self].popFront()
				if !ok {
					i, ok = steal(deques, self, &rng)
				}
				if !ok {
					// Every deque is empty; the task set is static, so no
					// new work can appear and this worker is done.
					return
				}
				errs[i] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// schedule returns task indices in deal order: descending cost with
// ascending-index tie-break, or plain index order without a cost model.
func schedule(n int, cost func(i int) float64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if cost == nil {
		return order
	}
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = cost(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	return order
}

// steal scans the other workers' deques in a seeded rotation and takes
// the smallest task (the back) from the first victim with work.
func steal(deques []deque, self int, rng *stealRng) (int, bool) {
	w := len(deques)
	start := int(rng.next() % uint64(w))
	for k := 0; k < w; k++ {
		victim := (start + k) % w
		if victim == self {
			continue
		}
		if i, ok := deques[victim].popBack(); ok {
			return i, true
		}
	}
	return 0, false
}

// deque is one worker's task queue: the owner pops from the front,
// thieves from the back. A plain mutex suffices — tasks here are whole
// simulations, so contention on the pop is noise.
type deque struct {
	mu    sync.Mutex
	tasks []int
	head  int
}

func (d *deque) popFront() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.tasks) {
		return 0, false
	}
	i := d.tasks[d.head]
	d.head++
	return i, true
}

func (d *deque) popBack() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.tasks) {
		return 0, false
	}
	i := d.tasks[len(d.tasks)-1]
	d.tasks = d.tasks[:len(d.tasks)-1]
	return i, true
}

// stealRng is a tiny xorshift generator for victim selection: cheap,
// seedable, and independent of the global math/rand state.
type stealRng struct{ state uint64 }

func (r *stealRng) next() uint64 {
	x := r.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.state = x
	return x
}

// splitmix64 spreads consecutive seeds into well-mixed xorshift states
// (a zero state would lock the generator at zero).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}
