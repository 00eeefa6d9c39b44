// Package hack implements TCP/HACK, the paper's contribution: a NIC
// driver extension that carries TCP acknowledgments inside 802.11
// link-layer acknowledgments, eliminating the medium acquisitions TCP
// ACK packets otherwise require.
//
// # The driver
//
// The Driver sits between the host network stack and the MAC
// (implementing mac.Hooks) and is fully symmetric: at a downloading
// client it compresses locally-generated TCP ACKs onto the client's
// Block ACKs; at an AP relaying a client's upload it compresses the
// server's TCP ACKs onto the AP's Block ACKs. Three holding policies
// from §3.2 are implemented:
//
//   - ModeMoreData (the paper's design): the peer sets the 802.11 MORE
//     DATA bit while more traffic is queued; the driver latches it and
//     holds compressed ACKs for the next link-layer ACK. When a frame
//     arrives without MORE DATA, held state flushes to native
//     transmission.
//   - ModeOpportunistic: ACKs contend natively as usual, but a copy is
//     registered with the NIC; if a data frame arrives before the
//     native copy wins the medium, the ACK rides the link-layer ACK
//     and the native copy is withdrawn. The mode retains nothing
//     across lost link-layer ACKs, so every registered copy travels
//     as a self-contained IR refresh (rohc.Compressor.Refresh).
//   - ModeTimer: the rejected strawman — hold every ACK for a fixed
//     delay hoping for a piggyback opportunity.
//
// ModeOff is the stock baseline: ACKs travel natively and the driver
// only counts them (Table 2's accounting).
//
// # The recovery state machine
//
// Loss recovery is an explicit per-peer state machine (RecoveryState)
// built around one invariant — the §4.3
// losslessness claim:
//
//	A compressed ACK is emitted only when the decompressor is
//	guaranteed to regenerate it exactly: either it extends a chain
//	whose every predecessor was emitted inside the decompressor's
//	duplicate window, or it is a self-contained IR refresh.
//
// States and transitions:
//
//	StateNative ──hold()──▶ StateCompressing: the first ACK held after
//	    any native interlude opens (or reopens) a chain. Because every
//	    native send flags its flow refreshed (rohc.Compressor.Observe),
//	    the chain's first compressed ACK per flow travels as an IR — an
//	    absolute refresh carrying the static chain and every dynamic
//	    field — so the transition is safe no matter which natives the
//	    decompressor has or has not seen (a re-anchor may be parked in
//	    the peer's reorder buffer, or lost outright).
//
//	StateCompressing ──▶ StateCompressing (§3.4 steady loss bridging):
//	    ridden ACKs are retained and re-ride every link-layer ACK until
//	    a Progress indication (the peer demonstrably advanced) confirms
//	    them; Block ACK Requests re-elicit the same payload; a first
//	    SYNC indication (the peer exhausted its BAR retries — one whole
//	    Block ACK generation lost) keeps retained state for the next
//	    opportunity, per Figure 8. MSN dedup at the decompressor
//	    discards re-ride duplicates. Each of these preserves the
//	    invariant because retained re-rides are verbatim chain segments
//	    within the duplicate window.
//
//	StateCompressing ──enterResync()──▶ StateResyncing, on any event
//	    the §3.4 machinery cannot bridge losslessly:
//	      - a second consecutive SYNC without intervening Progress (two
//	        whole Block ACK generations lost — the trigger behind the
//	        historical MORE-DATA collapse under uniform loss);
//	      - the frame guards: an assembled payload exceeding MaxPayload
//	        (it would outlast the peer's ACK-timeout allowance, failing
//	        the exchange deterministically and growing retained state
//	        without bound — the collapse's feedback loop), or a
//	        per-flow MSN span reaching the duplicate-window wrap (a
//	        stale re-ride would be mistaken for fresh state and poison
//	        the context);
//	      - a native send while compressed state is held (MORE-DATA
//	        latch-off mid-chain, an uncompressible ACK): absorbing a
//	        native asymmetrically while chain deltas are in flight
//	        would fork the two ends' stride predictors;
//	      - the Figure 7 latch-off after the final ride.
//	    The transition drops all held compressed state and replays it
//	    natively — every never-ridden pending ACK (their SACK state is
//	    not yet at the sender) and the newest retained ACK of each
//	    flow (cumulative acknowledgment covers the rest). The replay
//	    preserves the invariant vacuously: nothing compressed remains
//	    that could reference the dropped MSNs, and the replay flags
//	    every flow for an IR on reopen.
//
//	StateResyncing ──hold()──▶ StateCompressing: reopening does not
//	    wait for the replay to resolve — the IR refresh makes the new
//	    chain independent of the replay's fate, so compression resumes
//	    with the next held ACK. This immediacy is what keeps goodput at
//	    the lossless level: a driver that waited for native
//	    confirmation would spend loss episodes contending for the
//	    medium with ACK frames, starving the data path it acknowledges.
//
// The decompressor side cooperates through the rohc package's
// context-damage surface: a CRC mismatch invalidates the context
// (rohc.Decompressor.Invalidate) and drops ACKs for the flow
// (counted, never silent) until an IR or a native re-anchor restores
// it — rohc.Decompressor.ResyncNeeded exposes that condition, and the
// zero-failure tests assert it never arises in the first place.
//
// # Storage
//
// A warm driver allocates nothing per ACK. A held ACK keeps its
// compressed bytes in its own record (rohc.MaxCompressedLen of them),
// and the records live in two per-peer lists, pending and unconfirmed,
// that keep their arrays as ACKs move through them; the ready prefix of
// pending rides in place. BuildAckPayload appends into the link-layer
// ACK's own buffer, and the decompressor reuses its result list and
// draws reconstructed ACKs from the network's packet.Pool.
//
// # Determinism contract
//
// The driver is pure protocol state driven by the owning node's
// sim.Scheduler: it spins no goroutines, consults no clocks other
// than the scheduler's, and draws no randomness at all. A network's
// drivers therefore replay bit-identically for a fixed seed, and
// concurrently simulated networks (internal/campaign) never share
// driver state.
//
// # Interaction with rate adaptation
//
// HACK rides the link-layer ACK path, so its behavior is coupled to
// whatever rate the MAC's RateAdapter picks: lower data rates shrink
// A-MPDU batches (fewer ACKs held per Block ACK), while loss-prone
// rate choices stress the recovery machine. The machine holds the
// losslessness invariant through the ~1% per-MPDU FER regime, which
// is what makes the expected-goodput argmax oracle (mac.ArgmaxRate)
// usable — the threshold oracle's (mac.IdealRate) negligible-FER rule
// existed precisely to route around the old recovery's collapse
// there. The experiments package's LossResilience grid sweeps loss ×
// mode × adapter and asserts the invariant cell by cell.
package hack
