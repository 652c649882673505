package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// ConfigError is RunAll's error: the first config, in the caller's order,
// whose run failed.
type ConfigError struct {
	Index int
	Err   error
}

func (e *ConfigError) Error() string { return fmt.Sprintf("config %d: %v", e.Index, e.Err) }
func (e *ConfigError) Unwrap() error { return e.Err }

// RunAll simulates every config (one client each, as Run does) and returns
// the results in the order the configs were given. Runs share nothing, so
// they execute on GOMAXPROCS worker goroutines; each result is a function
// of its config alone, so neither the worker count nor the order the
// workers happen to finish in shows in the output. A failed run leaves a
// zero Result in its slot and does not stop the others; the error returned
// is the first in config order. Every worker has exited when RunAll returns.
// (Configs that share a Script share its decision log, and their lines
// interleave as the workers run.)
//
// Workers take configs largest file first (ties in the given order): the
// long runs start at once and the short ones fill in behind them, which
// ends sooner than taking a sweep's ascending sizes as they come, and it
// grows each worker's scratch to its working size in its first run.
func RunAll(cfgs []Config) ([]Result, error) {
	order := make([]int, len(cfgs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cfgs[order[a]].FileSize > cfgs[order[b]].FileSize })
	queue := make(chan int, len(order))
	for _, i := range order {
		queue <- i
	}
	close(queue)

	results := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(cfgs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newScratch()
			for i := range queue {
				results[i], errs[i] = sc.run(cfgs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, &ConfigError{Index: i, Err: err}
		}
	}
	return results, nil
}
