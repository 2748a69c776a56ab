package hot

/* //drslint:hotpath */
func blockTagged() map[int]int { return make(map[int]int) }
