package cc

import "fmt"

// New returns a fresh protocol instance by name: NONE or one of Names.
// Protocol instances carry global state (validation mutexes, timestamp
// counters) and must not be shared across independent databases.
func New(name string) (Protocol, error) {
	switch name {
	case "NONE":
		return NewNone(), nil
	case "NO_WAIT":
		return NewNoWait(), nil
	case "WAIT_DIE":
		return NewWaitDie(), nil
	case "OCC":
		return NewOCC(), nil
	case "SILO":
		return NewSilo(), nil
	case "TICTOC":
		return NewTicToc(), nil
	default:
		return nil, fmt.Errorf("cc: unknown protocol %q (known: %v)", name, append(Names(), "NONE"))
	}
}

// Names lists the protocols that provide isolation (excludes NONE): the
// three the paper evaluates, then the two 2PL flavours.
func Names() []string {
	return []string{"OCC", "SILO", "TICTOC", "NO_WAIT", "WAIT_DIE"}
}
