package conc

import (
	"sync"

	"specimen/internal/memsys"
)

func runShared(n int) {
	l2 := memsys.NewL2(memsys.DefaultConfig()) // want shared-l2
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l2.Access(0) // want shared-l2
		}()
	}
	wg.Wait()
}
