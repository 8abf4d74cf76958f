// Internal archive building blocks shared by the writers (dpz.cpp,
// chunked.cpp, shared_basis.cpp), the analysis evaluator and the
// integrity tools (verify.cpp, the CLI). Not part of the public API;
// layouts here may change between archive versions.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "codec/bytes.h"
#include "core/chunked.h"
#include "core/dpz.h"
#include "core/verify.h"
#include "linalg/matrix.h"

namespace dpz::detail {

/// Archive format versions. Version 2 adds CRC32C integrity: a header
/// checksum sealing every fixed field and a per-section checksum that is
/// verified *before* the blob reaches zlib. Writers always emit
/// kFormatVersion; readers accept both (docs/FORMAT.md, "Format v2").
inline constexpr std::uint8_t kFormatVersionLegacy = 1;
inline constexpr std::uint8_t kFormatVersion = 2;
/// Chunked-container revision 3 ("DZC3"): v2 plus an optional
/// Reed-Solomon parity section after the frame area. Writers emit it
/// only when parity is requested, so parity-less containers stay
/// byte-identical v2 (docs/FORMAT.md, "DZC3").
inline constexpr std::uint8_t kChunkedFormatVersion3 = 3;

/// Container magics (little-endian u32 of the 4-byte tag). The v1 tags
/// carry no version byte, so v2 containers announce themselves with new
/// magics and readers accept either generation.
inline constexpr std::uint32_t kDpzMagic = 0x315A5044;         // "DPZ1"
inline constexpr std::uint32_t kChunkedMagicV1 = 0x4B435A44;   // "DZCK"
inline constexpr std::uint32_t kChunkedMagicV2 = 0x32435A44;   // "DZC2"
inline constexpr std::uint32_t kChunkedMagicV3 = 0x33435A44;   // "DZC3"
inline constexpr std::uint32_t kBasisMagicV1 = 0x42505A44;     // "DZPB"
inline constexpr std::uint32_t kBasisMagicV2 = 0x32425A44;     // "DZB2"
inline constexpr std::uint32_t kSnapshotMagicV1 = 0x53505A44;  // "DZPS"
inline constexpr std::uint32_t kSnapshotMagicV2 = 0x32535A44;  // "DZS2"

/// The container magic that picks an archive's parser (0 when shorter).
inline std::uint32_t archive_magic(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) return 0;
  std::uint32_t magic = 0;
  for (std::size_t i = 0; i < 4; ++i)
    magic |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
  return magic;
}

/// Score-normalization calibration: every k-PCA score is divided by ONE
/// global scale — kScoreSigmaScale times the standard deviation of the
/// first (largest) component — before quantization, mirroring the paper's
/// single absolute error bound "designed only for approximation on k-PCA"
/// (SS IV-C). With the DPZ-l parameters (P = 1e-3, B = 255) the covered
/// band is ~2 sigma of the dominant component, so its near-normal stream
/// (the paper's normality argument) leaves only a small tail as verbatim
/// outliers, while later (smaller) components concentrate in the central
/// bins. That concentration is what makes the zlib factor RISE with TVE
/// (Table III) and the quantization loss of DPZ-l blow up at tight TVE
/// (Table IV).
inline constexpr double kScoreSigmaScale = 8.0;

/// Global normalization scale (see kScoreSigmaScale), computed from the
/// first component's scores. Zero-variance streams fall back to max-abs,
/// then to 1.
double component_scale(std::span<const double> scores);

/// Side data: everything reconstruction needs besides the quantized scores.
struct SideData {
  std::vector<double> mean;   ///< M
  std::vector<double> scale;  ///< M (meaningful when standardized)
  double score_scale = 1.0;   ///< global score normalization (see above)
  Matrix basis;               ///< M x k, serialized as byte-shuffled f32
};

std::vector<std::uint8_t> serialize_side(const SideData& side,
                                         bool standardized);
SideData deserialize_side(std::span<const std::uint8_t> bytes, std::size_t m,
                          std::size_t k, bool standardized);

/// One checksummed unit a format's header parser located: the sealed
/// header, or a compressed section. A view into the archive — nothing is
/// copied or inflated until get_section.
struct SectionExtent {
  const char* name = "";       ///< "header", "side", "codes", ...
  std::uint64_t offset = 0;    ///< first byte in the archive
  std::uint64_t size = 0;      ///< wire size, framing included
  std::uint64_t raw_size = 0;  ///< claimed inflated size (sections only)
  std::uint32_t stored_crc = 0;  ///< 0 for v1 units (no checksum)
  /// The checksummed bytes: the compressed blob of a section, or the
  /// sealed header bytes [0, seal).
  std::span<const std::uint8_t> blob;
};

/// Section framing.
///   v1: raw_size:u64, blob:u64-length-prefixed zlib stream
///   v2: raw_size:u64, crc:u32, blob  — crc is CRC32C over the 8
///       little-endian raw-size bytes followed by the compressed blob.
/// put_section always writes v2. read_section locates the section at the
/// cursor of `r` (a reader over `archive`) without copying its blob, and
/// rejects a claimed raw size the blob cannot back: deflate expands at
/// most ~1032:1, so a larger claim is a forged field that must not drive
/// the output allocation.
void put_section(ByteWriter& w, std::span<const std::uint8_t> raw,
                 int level);
SectionExtent read_section(ByteReader& r,
                           std::span<const std::uint8_t> archive,
                           std::uint8_t version, const char* name);

/// The one inflate path: for v2 the section checksum is verified *before*
/// the blob is handed to zlib (ChecksumError on mismatch), so corrupted
/// payloads never reach the inflater or size an allocation. A failure
/// leaves an error breadcrumb (obs/log.h) naming the section and its byte
/// offset. The reader overload parses the framing at the cursor first.
std::vector<std::uint8_t> get_section(const SectionExtent& section,
                                      std::uint8_t version);
std::vector<std::uint8_t> get_section(ByteReader& r, std::uint8_t version,
                                      const char* what = nullptr);

/// CRC32C over the section's wire image (raw-size field + blob), i.e.
/// exactly what a v2 section checksum covers. Shared with verify.cpp.
std::uint32_t section_crc(std::uint64_t raw_size,
                          std::span<const std::uint8_t> blob);

/// Header seal: put_header_crc appends a CRC32C over every byte written
/// so far. read_header_seal records the header extent [0, cursor) into
/// `header` (reading the stored CRC for version >= 2) and then checks
/// it, throwing ChecksumError("<what>: header checksum mismatch") — the
/// extent is filled first so verify can report the failing seal.
void put_header_crc(ByteWriter& w);
void read_header_seal(ByteReader& r, std::span<const std::uint8_t> archive,
                      std::uint8_t version, const char* what,
                      SectionExtent& header);

/// The shape every header carries: rank byte (1-4) then u64 extents,
/// each nonzero, the total at most kMaxArchiveElements. Throws
/// FormatError("<what>: ...") on nonsense.
inline constexpr std::uint64_t kMaxArchiveElements = 1ULL << 40;
std::vector<std::size_t> read_shape(ByteReader& r, const char* what);

/// The block-geometry envelope every writer satisfies for a `total`
/// element shape and `k` components: 0 < m < n, m * n within the padded
/// envelope of original_total (at most 4 * total + 16), 1 <= k <= m.
bool geometry_ok(const BlockLayout& layout, std::uint64_t total,
                 std::uint64_t k);

/// Rejects bytes after the last section (every reader's final check).
void require_consumed(const ByteReader& r, const char* what);

// ---- One header parser per format -----------------------------------
//
// Each parser runs its decoder's checks in the decoder's order — magic
// and version, the header seal, then geometry, then the section framing,
// then no trailing bytes — and fills `out` as it goes, so a caller that
// catches the throw (verify) still sees every extent located before the
// failing check. Decode, inspect, preflight, scrub/repair and verify all
// consume these results; nothing else reads a header field.

/// DPZ pipeline or stored-raw archive (magic DPZ1), parsed in dpz.cpp.
struct DpzLayout {
  DpzArchiveInfo info;
  SectionExtent header;
  /// stored: {payload}; pipeline: {side, codes, outliers}.
  std::vector<SectionExtent> sections;
};
void parse_dpz(std::span<const std::uint8_t> archive, DpzLayout& out);
/// dpz_decompress / dpz_decompress_f64 on an archive parse_dpz already
/// located, for callers that parsed it first (the chunked pre-pass, the
/// CLI): the header is not parsed again. The archive bytes the layout's
/// extents view must outlive the call.
FloatArray decode_dpz(const DpzLayout& parsed,
                      std::size_t max_components = 0, unsigned threads = 0,
                      const ResourceLimits& limits = {});
DoubleArray decode_dpz_f64(const DpzLayout& parsed,
                           std::size_t max_components = 0,
                           unsigned threads = 0,
                           const ResourceLimits& limits = {});

/// Chunked container (DZCK/DZC2/DZC3), parsed in chunked.cpp.
struct ContainerHeader {
  std::uint8_t version = kFormatVersionLegacy;
  SectionExtent header;
  std::vector<std::size_t> shape;
  std::size_t total = 0;
  std::size_t chunk_values = 0;
  std::size_t frame_count = 0;
  std::vector<std::uint64_t> frame_offsets;  // relative to frame area
  std::vector<std::uint64_t> frame_sizes;
  std::vector<std::uint32_t> frame_crcs;  // empty for v1 containers
  std::size_t frames_begin = 0;  // byte offset of the frame area
  // v3 parity geometry; parity_m == 0 when the container carries none.
  std::size_t parity_k = 0;
  std::size_t parity_m = 0;
  std::vector<std::uint64_t> shard_sizes;     // per group
  std::vector<std::uint64_t> parity_offsets;  // per group, in parity area
  std::vector<std::uint32_t> parity_crcs;     // group-major, m per group
  std::size_t parity_begin = 0;  // byte offset of the parity area

  [[nodiscard]] std::size_t groups() const {
    return parity_m == 0 ? 0 : (frame_count + parity_k - 1) / parity_k;
  }
  [[nodiscard]] std::span<const std::uint8_t> frame(
      std::span<const std::uint8_t> container, std::size_t f) const {
    return container.subspan(
        frames_begin + static_cast<std::size_t>(frame_offsets[f]),
        static_cast<std::size_t>(frame_sizes[f]));
  }
  [[nodiscard]] std::span<const std::uint8_t> parity_shard(
      std::span<const std::uint8_t> container, std::size_t g,
      std::size_t j) const {
    return container.subspan(
        parity_begin + static_cast<std::size_t>(parity_offsets[g]) +
            j * static_cast<std::size_t>(shard_sizes[g]),
        static_cast<std::size_t>(shard_sizes[g]));
  }
};
void parse_container(std::span<const std::uint8_t> container,
                     ContainerHeader& out);
/// chunked_parity_info and chunked_decode_preflight of an already parsed
/// container.
ParityInfo parity_info(const ContainerHeader& h);
DecodePreflight container_preflight(std::span<const std::uint8_t> container,
                                    const ContainerHeader& h);

/// Shared-basis blob (DZPB/DZB2), parsed in shared_basis.cpp.
struct BasisLayout {
  std::uint8_t version = kFormatVersionLegacy;
  SectionExtent header;
  bool wide_codes = false;
  double error_bound = 0.0;
  std::vector<std::size_t> shape;
  BlockLayout layout;
  std::size_t k = 0;
  std::vector<SectionExtent> sections;  ///< {basis}
};
void parse_basis(std::span<const std::uint8_t> blob, BasisLayout& out);

/// Shared-basis snapshot archive (DZPS/DZS2), parsed in shared_basis.cpp.
/// The outlier bound needs the codec's geometry, so decompress checks it.
struct SnapshotLayout {
  std::uint8_t version = kFormatVersionLegacy;
  SectionExtent header;
  double score_scale = 0.0;
  std::uint64_t outlier_count = 0;
  std::vector<SectionExtent> sections;  ///< {mean, codes, outliers}
};
void parse_snapshot(std::span<const std::uint8_t> archive,
                    SnapshotLayout& out);

/// What `dpz inspect` prints beside the verify table, taken from the
/// same parse verify_archive runs: the DPZ header, the priced decode,
/// and a container's parity geometry, each when the archive has one.
struct InspectFacts {
  std::optional<DpzArchiveInfo> dpz;
  std::optional<DecodePreflight> preflight;
  std::optional<ParityInfo> parity;
};
VerifyReport verify_archive(std::span<const std::uint8_t> bytes,
                            InspectFacts* facts);

}  // namespace dpz::detail
