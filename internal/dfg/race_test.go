//go:build race

package dfg

func init() { raceEnabled = true }
