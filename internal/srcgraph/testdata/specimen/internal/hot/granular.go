package hot

// A doc-comment directive marks only its own function, not the file.

// step is per-cycle.
//
//drslint:hotpath
func step() map[int]int { return make(map[int]int) } // want hotpath-alloc

func setup() map[int]int { return make(map[int]int) }
