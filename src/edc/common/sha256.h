// SHA-256 (FIPS 180-4) over a byte string, the content address that names
// a recorded trace in a cache key (see trace::Waveform::digest).
#pragma once

#include <string>
#include <string_view>

namespace edc {

/// The SHA-256 of `bytes` as 64 lowercase hex digits (what `sha256sum`
/// prints).
[[nodiscard]] std::string sha256_hex(std::string_view bytes);

}  // namespace edc
