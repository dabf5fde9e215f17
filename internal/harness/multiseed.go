package harness

// MultiSeed is the same campaign grid under several derived seeds. Per-cell
// results are noisy (±10–20%); averaging across seeds is how the
// calibration in DESIGN.md §5 was validated, and how a downstream user
// should compare configurations. internal/report aggregates and renders it.
type MultiSeed struct {
	campaigns []*Campaign
}

// NewMultiSeed builds seeds campaigns derived from cfg.Seed. Each campaign
// caches its own cells, so repeated aggregations are free.
func NewMultiSeed(cfg CampaignConfig, seeds int) *MultiSeed {
	if seeds < 1 {
		seeds = 1
	}
	ms := &MultiSeed{}
	for i := 0; i < seeds; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*1000003
		ms.campaigns = append(ms.campaigns, NewCampaign(c))
	}
	return ms
}

// Campaigns returns the seeded campaigns in seed order.
func (ms *MultiSeed) Campaigns() []*Campaign { return ms.campaigns }
