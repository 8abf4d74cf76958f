#include "core/verify.h"

#include "core/archive_detail.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32c.h"
#include "util/error.h"

namespace dpz {

namespace {

using detail::SectionExtent;

// Appends the report row for one located unit, comparing its stored CRC
// against `computed` when the format version carries checksums; false
// when that comparison fails. `count` is false for a check the parser
// already counted (the header seal).
bool add_row(VerifyReport& rep, const std::string& name,
             const SectionExtent& e, std::uint32_t computed,
             bool count = true) {
  SectionStatus s;
  s.name = name;
  s.offset = e.offset;
  s.size = e.size;
  s.raw_size = e.raw_size;
  if (rep.version >= detail::kFormatVersion) {
    s.has_crc = true;
    s.stored_crc = e.stored_crc;
    s.computed_crc = computed;
    s.crc_ok = s.stored_crc == s.computed_crc;
    if (count) {
      obs::count(obs::Counter::kCrcChecks);
      if (!s.crc_ok) obs::count(obs::Counter::kCrcFailures);
    }
  }
  rep.sections.push_back(s);
  return s.crc_ok;
}

// Rows for a parsed header and its compressed sections: everything the
// parser located, even when it threw before the end. A header mismatch
// is the parser's own seal error, already in the problem list and
// already counted by read_header_seal.
void add_rows(VerifyReport& rep, const SectionExtent& header,
              const std::vector<SectionExtent>& sections) {
  const obs::ScopedSpan crc_span(obs::Span::kCrcCheck);
  if (header.size == 0) return;  // the parse stopped before the seal
  add_row(rep, "header", header, crc32c(header.blob), /*count=*/false);
  for (const SectionExtent& s : sections)
    if (!add_row(rep, s.name, s, detail::section_crc(s.raw_size, s.blob)))
      rep.problems.push_back("section '" + std::string(s.name) +
                             "' checksum mismatch");
}

// Frame and parity-shard rows of a parsed container. Each frame is a
// self-contained DPZ archive, so its own structure is verified too — a v1
// container (no CRCs) still gets a meaningful check.
void add_container_rows(VerifyReport& rep,
                        std::span<const std::uint8_t> bytes,
                        const detail::ContainerHeader& h) {
  const obs::ScopedSpan crc_span(obs::Span::kCrcCheck);
  for (std::size_t f = 0; f < h.frame_count; ++f) {
    const std::string name = "frame[" + std::to_string(f) + "]";
    const auto frame = h.frame(bytes, f);
    SectionExtent e;
    e.offset = h.frames_begin + h.frame_offsets[f];
    e.size = frame.size();
    if (!h.frame_crcs.empty()) e.stored_crc = h.frame_crcs[f];
    if (!add_row(rep, name, e, crc32c(frame)))
      rep.problems.push_back(name + " checksum mismatch");
    const VerifyReport inner = verify_archive(frame);
    if (!inner.ok) rep.problems.push_back(name + ": " + inner.problems.front());
  }
  // Parity shards follow the frames; each carries a header-sealed CRC,
  // so a damaged shard is reported without touching any frame.
  for (std::size_t g = 0; g < h.groups(); ++g) {
    for (std::size_t j = 0; j < h.parity_m; ++j) {
      const auto shard = h.parity_shard(bytes, g, j);
      SectionExtent e;
      e.offset = h.parity_begin + h.parity_offsets[g] + j * shard.size();
      e.size = shard.size();
      e.stored_crc = h.parity_crcs[g * h.parity_m + j];
      const std::string name =
          "parity[" + std::to_string(g) + "." + std::to_string(j) + "]";
      if (!add_row(rep, name, e, crc32c(shard)))
        rep.problems.push_back(name + " checksum mismatch");
    }
  }
}

// Runs `parse`, turning a throw into a report problem; true on success.
template <typename Parse>
bool parsed(VerifyReport& rep, Parse&& parse) {
  try {
    parse();
    return true;
  } catch (const Error& e) {
    rep.problems.push_back(e.what());
    return false;
  }
}

}  // namespace

VerifyReport detail::verify_archive(std::span<const std::uint8_t> bytes,
                                    InspectFacts* facts) {
  VerifyReport rep;
  rep.kind = "unknown";
  switch (archive_magic(bytes)) {
    case kDpzMagic: {
      DpzLayout l;
      const bool ok = parsed(rep, [&] { parse_dpz(bytes, l); });
      rep.kind = l.info.stored_raw ? "stored" : "dpz";
      rep.version = l.info.version;
      add_rows(rep, l.header, l.sections);
      if (ok && facts != nullptr) {
        facts->dpz = l.info;
        facts->preflight = dpz_decode_preflight(l.info);
      }
      break;
    }
    case kChunkedMagicV1:
    case kChunkedMagicV2:
    case kChunkedMagicV3: {
      ContainerHeader h;
      const bool ok = parsed(rep, [&] { parse_container(bytes, h); });
      rep.kind = "chunked";
      rep.version = h.version;
      add_rows(rep, h.header, {});
      if (!ok) break;
      add_container_rows(rep, bytes, h);
      if (facts != nullptr) {
        facts->parity = parity_info(h);
        // A frame too malformed to price is already a problem above.
        try {
          facts->preflight = container_preflight(bytes, h);
        } catch (const Error&) {
        }
      }
      break;
    }
    case kBasisMagicV1:
    case kBasisMagicV2: {
      BasisLayout l;
      parsed(rep, [&] { parse_basis(bytes, l); });
      rep.kind = "shared-basis";
      rep.version = l.version;
      add_rows(rep, l.header, l.sections);
      break;
    }
    case kSnapshotMagicV1:
    case kSnapshotMagicV2: {
      SnapshotLayout l;
      parsed(rep, [&] { parse_snapshot(bytes, l); });
      rep.kind = "snapshot";
      rep.version = l.version;
      add_rows(rep, l.header, l.sections);
      break;
    }
    default:
      rep.problems.emplace_back("not a recognized DPZ container");
  }
  rep.ok = rep.problems.empty();
  return rep;
}

VerifyReport verify_archive(std::span<const std::uint8_t> bytes) {
  return detail::verify_archive(bytes, nullptr);
}

std::optional<DecodePreflight> decode_preflight(
    std::span<const std::uint8_t> bytes) {
  try {
    switch (detail::archive_magic(bytes)) {
      case detail::kDpzMagic:
        return dpz_decode_preflight(dpz_inspect(bytes));
      case detail::kChunkedMagicV1:
      case detail::kChunkedMagicV2:
      case detail::kChunkedMagicV3:
        return chunked_decode_preflight(bytes);
      default:
        return std::nullopt;
    }
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace dpz
