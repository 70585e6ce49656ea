// Re-sealing an edited checkpoint blob, for the suites that plant corrupt
// payloads: a blob whose bytes were changed fails the CRC-32 trailer check
// first, so a test that wants its edit to reach a later check rewrites the
// trailer over the edited bytes, as the writer would have.
#pragma once

#include <cstdint>
#include <vector>

#include "service/checkpoint.hpp"

namespace iscope {

/// Rewrite the last four bytes of `blob` as the little-endian CRC-32 of
/// every byte before them. Blobs shorter than the trailer are left as is.
inline void reseal(std::vector<std::uint8_t>& blob) {
  if (blob.size() < 4) return;
  const std::size_t body = blob.size() - 4;
  const std::uint32_t crc = checkpoint_crc32(blob.data(), body);
  for (std::size_t i = 0; i < 4; ++i)
    blob[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
}

}  // namespace iscope
