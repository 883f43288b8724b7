#include "core/state_codec.h"

#include <cinttypes>
#include <cstdio>

#include "common/archive.h"
#include "common/crc32.h"

namespace rockhopper::core {

namespace {

constexpr char kMagic[] = "rockhopper-state";
constexpr char kVersion[] = "v2";

}  // namespace

Result<std::string> EncodeQueryState(const QueryState& state) {
  common::ArchiveWriter writer;
  ROCKHOPPER_RETURN_IF_ERROR(writer.PutBool("disabled", state.disabled));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer.PutInt("consecutive_failures", state.consecutive_failures));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer.PutInt("fallback_remaining", state.fallback_remaining));
  ROCKHOPPER_RETURN_IF_ERROR(writer.PutInt("backoff", state.backoff));
  ROCKHOPPER_RETURN_IF_ERROR(state.guardrail.Save("guardrail", &writer));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer.PutBool("has_tuner", state.tuner != nullptr));
  if (state.tuner != nullptr) {
    ROCKHOPPER_RETURN_IF_ERROR(state.tuner->Save("tuner", &writer));
  }
  const std::string payload = writer.Finish();
  char header[64];
  std::snprintf(header, sizeof(header), "%s %s %08x %zu\n", kMagic, kVersion,
                common::Crc32(payload), payload.size());
  return std::string(header) + payload;
}

Status DecodeQueryState(const std::string& artifact, QueryState* state) {
  const size_t newline = artifact.find('\n');
  if (newline == std::string::npos) {
    return Status::DataLoss("state artifact: missing header line");
  }
  const std::string header = artifact.substr(0, newline);
  char magic[32], version[16];
  uint32_t crc = 0;
  size_t payload_bytes = 0;
  if (std::sscanf(header.c_str(), "%31s %15s %x %zu", magic, version, &crc,
                  &payload_bytes) != 4 ||
      std::string(magic) != kMagic) {
    return Status::DataLoss("state artifact: bad header: " + header);
  }
  if (std::string(version) != kVersion) {
    return Status::InvalidArgument("state artifact: unsupported version " +
                                   std::string(version));
  }
  const std::string payload = artifact.substr(newline + 1);
  if (payload.size() != payload_bytes) {
    return Status::DataLoss("state artifact: truncated payload (" +
                            std::to_string(payload.size()) + " of " +
                            std::to_string(payload_bytes) + " bytes)");
  }
  if (common::Crc32(payload) != crc) {
    return Status::DataLoss("state artifact: payload CRC mismatch");
  }
  ROCKHOPPER_ASSIGN_OR_RETURN(reader, common::ArchiveReader::Parse(payload));
  ROCKHOPPER_ASSIGN_OR_RETURN(disabled, reader.GetBool("disabled"));
  ROCKHOPPER_ASSIGN_OR_RETURN(consecutive,
                              reader.GetInt("consecutive_failures"));
  ROCKHOPPER_ASSIGN_OR_RETURN(fallback, reader.GetInt("fallback_remaining"));
  ROCKHOPPER_ASSIGN_OR_RETURN(backoff, reader.GetInt("backoff"));
  ROCKHOPPER_ASSIGN_OR_RETURN(has_tuner, reader.GetBool("has_tuner"));
  if (has_tuner != (state->tuner != nullptr)) {
    return Status::InvalidArgument(
        "state artifact: tuner presence mismatch with reconstructed state");
  }
  ROCKHOPPER_RETURN_IF_ERROR(state->guardrail.Load("guardrail", reader));
  if (state->tuner != nullptr) {
    ROCKHOPPER_RETURN_IF_ERROR(state->tuner->Load("tuner", reader));
  }
  state->disabled = disabled;
  state->consecutive_failures = static_cast<int>(consecutive);
  state->fallback_remaining = static_cast<int>(fallback);
  state->backoff = static_cast<int>(backoff);
  return Status::OK();
}

size_t ApproxQueryStateBytes(const QueryState& state) {
  size_t bytes = sizeof(QueryState) + state.guardrail.ApproxBytes();
  if (state.tuner != nullptr) bytes += state.tuner->ApproxBytes();
  return bytes;
}

}  // namespace rockhopper::core
