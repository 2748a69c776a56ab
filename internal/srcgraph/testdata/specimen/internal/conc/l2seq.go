package conc

import "specimen/internal/memsys"

// No go statement in this file: the free-running L2 is fine here.

func miss() bool {
	l2 := memsys.NewL2(memsys.DefaultConfig())
	return !l2.Access(0)
}
