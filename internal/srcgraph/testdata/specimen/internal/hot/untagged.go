package hot

// Nothing in this file is tagged or reached from a hot root.

func untagged() map[int]int {
	out := make([]int, 0, 4)
	out = append(out, 1)
	_ = out
	return make(map[int]int)
}
