package harness

import "testing"

func TestMultiSeedClampsSeeds(t *testing.T) {
	ms := NewMultiSeed(CampaignConfig{Apps: []string{"Filters For Selfie"}}, 0)
	if len(ms.Campaigns()) != 1 {
		t.Fatalf("Seeds = %d, want clamp to 1", len(ms.Campaigns()))
	}
}
