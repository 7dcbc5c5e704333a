// JSON round-trip for TrialSpec / TrialResult.
//
// The campaign engine (see campaign.hpp) persists specs in its checkpoint
// and streams results into per-shard journals; a killed sweep resumes by
// parsing both back. Everything here is therefore *exact*:
//
//  - doubles are "%.17g" (util::json_number) and re-read with strtod, which
//    round-trips every finite double bit-identically;
//  - u64 seeds and counters are printed as integers and re-read through the
//    raw lexeme (never through a double), so all 64 bits survive;
//  - RunningStats serializes its complete internal state (count/mean/m2/
//    min/max), so merged aggregates of replayed trials are bit-identical to
//    aggregates of the trials that actually ran;
//  - map-valued fields serialize in std::map (= byte) order, so the output
//    is deterministic and the digest below is stable.
//
// Non-finite doubles in a result (json_number prints them as null) fail the
// round-trip loudly at replay time rather than resurrecting as 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace dimmer::util::json {
class Value;
}

namespace dimmer::exp {

/// Canonical one-line JSON for a spec:
///   {"scenario": "...", "seed": S, "params": {...}, "tags": {...},
///    "fault_plan": [...]}
/// (params/tags/fault_plan omitted when empty.)
std::string spec_to_json(const TrialSpec& spec);

/// Inverse of spec_to_json. Throws on malformed input.
TrialSpec spec_from_value(const util::json::Value& v);

/// Canonical one-line JSON for a result:
///   {"ok": true, "wall_seconds": W, "metrics": {...},
///    "stats": {"k": {"count": n, "mean": m, "m2": q, "min": a, "max": b}},
///    "series": {...}, "registry": {...}}
/// ("error" present only when !ok; empty sections omitted; an empty stats
/// entry is {"count": 0}.)
std::string result_to_json(const TrialResult& r);

/// Inverse of result_to_json. Throws on malformed input (including the
/// nulls json_number emits for non-finite values).
TrialResult result_from_value(const util::json::Value& v);

/// Digest of one spec: util::fnv1a64(spec_to_json(spec)). Stable across
/// platforms, so a resumed campaign can prove the checkpoint it is replaying
/// matches the spec matrix the journals were written against.
std::uint64_t spec_digest(const TrialSpec& spec);

/// Order-sensitive digest of a whole spec matrix (folds each spec's digest
/// with its index). Two matrices agree iff every spec and its position do.
std::uint64_t specs_digest(const std::vector<TrialSpec>& specs);

}  // namespace dimmer::exp
