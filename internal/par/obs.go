package par

import "prometheus/internal/obs"

// Observability events. "par.rank" accumulates each rank's measured
// flop/message/byte counters (the slices Profile.PerRank hands to
// internal/perf's efficiency decomposition); "par.halo.exchange" times
// each rank's packing and posting of its ghost values and counts that
// traffic separately.
var (
	obsRankEv  = obs.Register("par.rank")
	obsHaloEv  = obs.Register("par.halo.exchange")
	obsMsgSize = obs.NewHistogram("par.msg_bytes")
)
