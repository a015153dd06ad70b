package simnet_test

import (
	"fmt"
	"log"

	"repro/internal/simnet"
)

// Example builds the canonical overlap pattern: a CPU computing tiles
// back-to-back while a NIC ships each tile's result concurrently. The
// makespan is N·compute + one trailing send — not N·(compute+send).
func Example() {
	e := simnet.NewEngine()
	cpu := e.NewResource("cpu")
	nic := e.NewResource("nic")
	var prev simnet.ActID
	for k := 0; k < 4; k++ {
		c := e.NewActivity(cpu, 10, fmt.Sprintf("compute%d", k))
		if prev != 0 {
			e.AddDep(prev, c)
		}
		s := e.NewActivity(nic, 3, fmt.Sprintf("send%d", k))
		e.AddDep(c, s)
		prev = c
	}
	r, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan %.0f (serialized would be %.0f)\n", r.Makespan, 4*13.0)
	path := e.CriticalPath()
	fmt.Printf("critical path ends with %q\n", path[len(path)-1].Label)
	// Output:
	// makespan 43 (serialized would be 52)
	// critical path ends with "send3"
}
