package conc

import "specimen/internal/memsys"

func runOrdered(n int) *memsys.OrderedL2 {
	o := memsys.NewOrderedL2(memsys.DefaultConfig(), n)
	go func() {}()
	o.Drain()
	return o
}
