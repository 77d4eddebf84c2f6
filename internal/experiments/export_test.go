package experiments

import (
	"context"

	"insidedropbox/internal/fleet"
)

// All renders every experiment of the four vantage points' tallies
// (packet-level labs excluded; see RunPacketLabs) in paper order: the
// direct calls TestRunMatchesDirectCalls holds the registry to.
func All(ts Tallies) []*Result {
	return []*Result{
		Table1(),
		Table2(ts),
		Table3(ts),
		Table5(ts),
		Figure2(ts),
		Figure3(ts),
		Figure4(ts),
		Figure5(ts),
		Figure6(ts),
		Figure7(ts),
		Figure8(ts),
		Figure11(ts),
		Figure12(ts),
		Figure13(ts),
		Figure14(ts),
		Figure15(ts),
		Figure16(ts),
		Figure17(ts),
		Figure18(ts),
		Figure20(ts),
		Figure21(ts),
	}
}

// Table4Context is table4 on a one-shard pool of its own.
func Table4Context(ctx context.Context, seed int64, scale float64) (*Result, error) {
	return table4(ctx, seed, scale, fleet.Config{Shards: 1})
}

// RunPacketLabs executes both labs and renders Figs. 9 and 10.
func RunPacketLabs(ctx context.Context, store, retr PacketLabConfig) (fig9, fig10 *Result, err error) {
	storeRecs, retrRecs, err := runPacketLabs(ctx, store, retr, 0)
	if err != nil {
		return nil, nil, err
	}
	return Figure9(storeRecs, retrRecs), Figure10(storeRecs, retrRecs), nil
}
