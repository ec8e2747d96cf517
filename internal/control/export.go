package control

import (
	"bufio"
	"encoding/json"
	"io"

	"perfiso/internal/sim"
)

// headerLine is the first JSONL line: the effective configuration and
// run totals, so a log is interpretable on its own.
type headerLine struct {
	Type     string  `json:"type"` // "controller"
	PeriodMS float64 `json:"period_ms"`
	Step     float64 `json:"step"`
	Decay    float64 `json:"decay"`
	Floor    float64 `json:"floor"`
	MaxBoost float64 `json:"max_boost"`
	HighBurn float64 `json:"high_burn"`
	LowBurn  float64 `json:"low_burn"`
	Ticks    int64   `json:"ticks"`
	Retunes  int64   `json:"retunes"`
	Boosts   int64   `json:"boosts"`
	Releases int64   `json:"releases"`
	Shed     int64   `json:"shed,omitempty"`
	Trips    int64   `json:"trips,omitempty"`
}

// actionLine is one controller decision.
type actionLine struct {
	Type   string  `json:"type"` // "control"
	TMS    float64 `json:"t_ms"`
	Action string  `json:"action"`
	Target string  `json:"target"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	Burn   float64 `json:"burn,omitempty"`
}

// WriteJSONL writes the controller's effective config, totals, and
// decision log as deterministic JSONL: same run, same bytes.
func WriteJSONL(w io.Writer, c *Controller) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	ms := func(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }
	if err := enc.Encode(headerLine{
		Type:     "controller",
		PeriodMS: ms(c.lat.Window()),
		Step:     c.cfg.Step,
		Decay:    c.cfg.Decay,
		Floor:    Floor,
		MaxBoost: c.cfg.MaxBoost,
		HighBurn: HighBurn,
		LowBurn:  LowBurn,
		Ticks:    c.Stat.Ticks,
		Retunes:  c.Stat.Retunes,
		Boosts:   c.Stat.Boosts,
		Releases: c.Stat.Releases,
		Shed:     c.Stat.Shed,
		Trips:    c.Stat.Trips,
	}); err != nil {
		return err
	}
	for _, a := range c.actions {
		if err := enc.Encode(actionLine{
			Type:   "control",
			TMS:    ms(a.At),
			Action: a.Action,
			Target: a.Target,
			Old:    a.Old,
			New:    a.New,
			Burn:   a.Burn,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
