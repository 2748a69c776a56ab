package conc

import "specimen/internal/memsys"

func runAllowed() *memsys.L2 {
	go func() {}()
	//drslint:allow shared-l2 -- single consumer, documented exception
	return memsys.NewL2(memsys.DefaultConfig())
}
