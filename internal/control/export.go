package control

import (
	"io"

	"perfiso/internal/artifact"
	"perfiso/internal/sim"
)

// WriteJSONL writes the controller's effective config, totals, and
// decision log as deterministic JSONL: same run, same bytes. The first
// line ("controller") holds the configuration and run totals, so a log
// is interpretable on its own; each "control" line after it is one
// decision.
func WriteJSONL(w io.Writer, c *Controller) error {
	e := artifact.NewEncoder(w)
	ms := func(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }
	e.Begin().Str("type", "controller").Float("period_ms", ms(c.lat.Window())).
		Float("step", c.cfg.Step).Float("decay", c.cfg.Decay).Float("floor", Floor).
		Float("max_boost", c.cfg.MaxBoost).Float("high_burn", HighBurn).Float("low_burn", LowBurn).
		Int("ticks", c.Stat.Ticks).Int("retunes", c.Stat.Retunes).
		Int("boosts", c.Stat.Boosts).Int("releases", c.Stat.Releases)
	if c.Stat.Shed != 0 {
		e.Int("shed", c.Stat.Shed)
	}
	if c.Stat.Trips != 0 {
		e.Int("trips", c.Stat.Trips)
	}
	e.Line()
	for _, a := range c.actions {
		e.Begin().Str("type", "control").Float("t_ms", ms(a.At)).
			Str("action", a.Action).Str("target", a.Target).
			Float("old", a.Old).Float("new", a.New)
		if a.Burn != 0 {
			e.Float("burn", a.Burn)
		}
		e.Line()
	}
	return e.Flush()
}
