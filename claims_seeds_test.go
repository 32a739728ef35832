//go:build claims

package teledrive_test

import (
	"fmt"
	"testing"

	"teledrive/internal/campaign"
)

// TestPaperClaimsAcrossSeeds re-checks the claims that hold on every
// seed measured so far on three more paper campaigns. E4's column
// ordering and the E3 maxima are seed-4 results (TestPaperClaims) and
// are not gated here. Run with `make claims`.
func TestPaperClaimsAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := campaign.Run(campaign.Config{
				Seed:                 seed,
				Plan:                 campaign.PlanPaper,
				ApplyPaperExclusions: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkSeedIndependentClaims(t, res)
		})
	}
}
