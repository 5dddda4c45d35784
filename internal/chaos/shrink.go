package chaos

// Shrinking reduces a failing Config to a minimal one that still fails,
// so corpus entries and bug reports carry the smallest reproducer: fewer
// messages, fewer fault types, fewer entities. The reduction is a greedy
// fixpoint over a fixed transformation list — deterministic, bounded,
// and independent of wall time.

// shrinkSteps are the candidate reductions, tried in order at every
// round. Each must strictly simplify the config or return ok=false.
var shrinkSteps = []struct {
	name  string
	apply func(Config) (Config, bool)
}{
	{"halve-messages", func(c Config) (Config, bool) {
		if c.Messages <= 2 {
			return c, false
		}
		c.Messages /= 2
		return c, true
	}},
	{"drop-duplication", func(c Config) (Config, bool) {
		if c.Duplicate == 0 {
			return c, false
		}
		c.Duplicate = 0
		return c, true
	}},
	{"drop-bursts", func(c Config) (Config, bool) {
		if c.BurstProb == 0 {
			return c, false
		}
		c.BurstProb, c.BurstLen = 0, 0
		return c, true
	}},
	{"drop-corruption", func(c Config) (Config, bool) {
		if c.Corrupt == 0 {
			return c, false
		}
		c.Corrupt = 0
		return c, true
	}},
	{"fewer-partitions", func(c Config) (Config, bool) {
		if c.Partitions == 0 {
			return c, false
		}
		c.Partitions--
		return c, true
	}},
	{"fewer-pauses", func(c Config) (Config, bool) {
		if c.Pauses == 0 {
			return c, false
		}
		c.Pauses--
		return c, true
	}},
	{"drop-slow-entities", func(c Config) (Config, bool) {
		if c.SlowEntities == 0 {
			return c, false
		}
		c.SlowEntities = 0
		return c, true
	}},
	{"drop-jitter", func(c Config) (Config, bool) {
		if c.JitterUS == 0 {
			return c, false
		}
		c.JitterUS = 0
		return c, true
	}},
	{"drop-loss", func(c Config) (Config, bool) {
		if c.Loss == 0 {
			return c, false
		}
		c.Loss = 0
		return c, true
	}},
	{"fewer-groups", func(c Config) (Config, bool) {
		switch {
		case c.Groups < 2:
			return c, false
		case c.Groups == 2:
			c.Groups = 0 // back to the classic single-group run
		default:
			c.Groups--
		}
		return c, true
	}},
	{"drop-stalled-peers", func(c Config) (Config, bool) {
		if c.StalledPeers == 0 {
			return c, false
		}
		c.StalledPeers = 0
		return c, true
	}},
	{"drop-mem-budget", func(c Config) (Config, bool) {
		if c.MemBudgetBytes == 0 {
			return c, false
		}
		c.MemBudgetBytes, c.Shed = 0, false
		return c, true
	}},
	{"shrink-cluster", func(c Config) (Config, bool) {
		// Keep at least two survivors alongside any stalled peers, so
		// every candidate stays a valid config (an invalid one would
		// "fail" under Run and trap the shrinker).
		if c.N <= 2 || c.N-1-c.StalledPeers < 2 {
			return c, false
		}
		c.N--
		return c, true
	}},
}

// ShrinkWith minimizes cfg against an arbitrary failure predicate,
// spending at most maxRuns evaluations. It assumes fails(cfg) is true
// (callers verify first) and returns the smallest failing config found
// plus the number of evaluations spent. Deterministic for a
// deterministic predicate.
func ShrinkWith(cfg Config, fails func(Config) bool, maxRuns int) (Config, int) {
	runs := 0
	for {
		reduced := false
		for _, step := range shrinkSteps {
			cand, ok := step.apply(cfg)
			if !ok {
				continue
			}
			if runs >= maxRuns {
				return cfg, runs
			}
			runs++
			if fails(cand) {
				cfg = cand
				reduced = true
			}
		}
		if !reduced {
			return cfg, runs
		}
	}
}

// Shrink minimizes a config that fails under Run. It first confirms the
// failure (returning ok=false if cfg actually passes), then reduces to a
// fixpoint within maxRuns total runs.
func Shrink(cfg Config, maxRuns int) (min Config, ok bool, runs int) {
	fails := func(c Config) bool {
		_, err := Run(c)
		return err != nil
	}
	if maxRuns < 1 || !fails(cfg) {
		return cfg, false, 1
	}
	min, runs = ShrinkWith(cfg, fails, maxRuns-1)
	return min, true, runs + 1
}
