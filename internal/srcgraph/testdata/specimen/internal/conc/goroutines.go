// Package conc holds the module-wide cases of the hazard tests:
// goroutine-captured-write and shared-l2 fire whether or not a root
// reaches the function. shared-l2 is file-granular, so each of its
// cases has a file of its own.
package conc

import "sync"

func capturedWrite() int {
	total := 0
	done := make(chan struct{})
	go func() {
		total = 42 // want goroutine-captured-write
		close(done)
	}()
	<-done
	return total
}

// indexWrite is the worker-per-element idiom: disjoint by construction.
func indexWrite(n int) []int {
	out := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = i * i
		}(i)
	}
	wg.Wait()
	return out
}

func localWrite() {
	go func() {
		n := 0
		n++
		n = n * 2
		_ = n
	}()
}
