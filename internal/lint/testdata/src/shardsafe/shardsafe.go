// Package shardsafe is a lint fixture: handler-reachable code that bypasses
// the sim event API.
package shardsafe

// net mimics the mesh endpoint registry: SetHandler roots its argument.
type net struct{ h func(interface{}) }

func (n *net) SetHandler(h func(interface{})) { n.h = h }

var total int
var debugSeq int

type counter struct{ n int }

// Handle writes only instance state itself, but calls bump.
func (c *counter) Handle(p interface{}) {
	c.n++
	bump()
}

func bump() {
	total++ // want "writes package-level variable total"
}

func spawn(p interface{}) {
	go bump() // want "launches a goroutine"
}

func stamp(p interface{}) {
	debugSeq++ //lint:shardsafe debug-only counter; torn increments are acceptable and never sim-visible
}

func wire(n *net, ch chan int) {
	c := &counter{}
	n.SetHandler(c.Handle)
	n.SetHandler(spawn)
	n.SetHandler(stamp)
	n.SetHandler(func(p interface{}) {
		ch <- 1 // want "sends on a channel"
	})
}

// idle is not reachable from any handler: never flagged.
func idle(ch chan int) {
	ch <- 2
	go bump()
}

var _ = wire
var _ = idle
