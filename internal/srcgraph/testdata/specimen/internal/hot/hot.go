// Package hot holds the hotpath-alloc cases of the hazard tests. This
// file carries a file-level tag, so every function in it is a hot root;
// the other files of the package are untagged.
package hot

//drslint:hotpath

func resolveTargets() {
	seen := make(map[int]uint32, 4) // want hotpath-alloc
	seen[1] = 2
	_ = seen
}

func mapLiteral() map[int]int { return map[int]int{1: 2} } // want hotpath-alloc

// freshAppend grows a made slice and a nil-started one: both allocate
// on every growth.
func freshAppend(n int) ([]int, []int) {
	made := make([]int, 0, n)
	var nilStart []int
	for i := 0; i < n; i++ {
		made = append(made, i)         // want hotpath-alloc
		nilStart = append(nilStart, i) // want hotpath-alloc
	}
	return made, nilStart
}

type warp struct {
	uniqBuf []int
	stack   []int
}

// resolve is the pooled idiom hot code should use — reslice a field to
// length zero, append, store back — and must pass.
func (w *warp) resolve(targets []int) {
	uniq := w.uniqBuf[:0]
	for _, t := range targets {
		uniq = append(uniq, t)
	}
	w.uniqBuf = uniq
	w.stack = append(w.stack, len(uniq))
}

func launch() {
	//drslint:allow hotpath-alloc -- runs once per kernel launch, not per cycle
	m := make(map[int]int)
	_ = m
}

// launchAll allocates a slice without append growth: allocation, but
// not churn-by-growth.
func launchAll(n int) []int32 {
	slots := make([]int32, n)
	for i := range slots {
		slots[i] = int32(i)
	}
	return slots
}
