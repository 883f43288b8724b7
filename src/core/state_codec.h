#ifndef ROCKHOPPER_CORE_STATE_CODEC_H_
#define ROCKHOPPER_CORE_STATE_CODEC_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/signature_shard.h"

namespace rockhopper::core {

/// Versioned, CRC-guarded serialization of one signature's QueryState — the
/// cold-tier artifact format of the tiered state layer. An artifact is a
/// header line
///
///   rockhopper-state v2 <crc32-hex8> <payload-bytes>
///
/// followed by an ArchiveWriter payload holding the tuner (centroid, windows,
/// GP factorization, generator position), the guardrail's trend rows and
/// the failure-policy scalars — only fields a decision reads. Artifacts are
/// written and read by the same process, so only the current version is
/// readable. The CRC covers the whole payload, so a torn or
/// bit-flipped cold artifact is detected on fault-in (kDataLoss) instead of
/// resurrecting silent garbage — the journal's torn-tail discipline applied
/// to evicted model state.
///
/// The codec persists only per-signature *learned* state. Shared context
/// (config space, baseline model, scorer/tuner options, the derived seed) is
/// reconstructed by the caller: DecodeQueryState loads into a freshly
/// constructed QueryState whose tuner already carries that context. A
/// round-trip through Encode/Decode reproduces Propose/Observe decisions
/// bit-identically (hexfloat + mt19937_64 stream state), which is what lets
/// eviction stay invisible to proposal trajectories.

/// Serializes `state` into a self-checking artifact string.
Result<std::string> EncodeQueryState(const QueryState& state);

/// Validates and decodes `artifact` into `state`. `state` must be freshly
/// constructed with the same shared context the encoded state had (same
/// space, options and tuner seed); its learned fields are overwritten.
/// Returns kDataLoss on a bad header, length mismatch or CRC mismatch, and
/// kInvalidArgument when the artifact has tuner state but `state` has no
/// tuner (or vice versa).
Status DecodeQueryState(const std::string& artifact, QueryState* state);

/// Approximate resident footprint of `state` in bytes — the accounting unit
/// of the eviction tier's --memory-budget.
size_t ApproxQueryStateBytes(const QueryState& state);

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_STATE_CODEC_H_
