// Copyright 2026 The dpcube Authors.

#include "engine/release_io.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <string_view>

namespace dpcube {
namespace engine {
namespace {

// Appends `value` as "%.17g" prints it: std::to_chars in general format at
// precision 17 yields the same bytes without printf's format parsing.
void AppendDouble(double value, std::string* out) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 17);
  out->append(buf, res.ptr);
}

void AppendUint(std::uint64_t value, std::string* out) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, res.ptr);
}

// Parses all of `field` as a number: no sign on unsigned fields (from_chars
// accepts none), no leading blanks, no trailing bytes.
template <typename T>
bool ParseWhole(std::string_view field, T* value) {
  const char* end = field.data() + field.size();
  const auto res = std::from_chars(field.data(), end, *value);
  return res.ec == std::errc() && res.ptr == end;
}

// Cuts the next field of `line` up to `sep` (or the rest of the line).
std::string_view NextField(std::string_view* line, char sep) {
  const std::size_t at = line->find(sep);
  const std::string_view field = line->substr(0, at);
  line->remove_prefix(at == std::string_view::npos ? line->size() : at + 1);
  return field;
}

}  // namespace

Status WriteReleaseCsv(const std::string& path,
                       const std::vector<marginal::MarginalTable>& marginals,
                       const linalg::Vector& cell_variances,
                       const PhaseTimings* build_timings) {
  if (!cell_variances.empty() && cell_variances.size() != marginals.size()) {
    return Status::InvalidArgument(
        "cell_variances must be empty or have one entry per marginal");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open '" + path + "' for writing");
  const int d = marginals.empty() ? 0 : marginals.front().d();
  for (const marginal::MarginalTable& m : marginals) {
    if (m.d() != d) {
      return Status::InvalidArgument(
          "all marginals must share the same domain dimensionality");
    }
  }
  std::string buf = "# dpcube-release d=" + std::to_string(d) + "\n";
  if (!cell_variances.empty()) {
    buf += "# dpcube-cell-variances";
    for (const double v : cell_variances) {
      buf += ' ';
      AppendDouble(v, &buf);
    }
    buf += '\n';
  }
  if (build_timings != nullptr) {
    char header[192];
    std::snprintf(header, sizeof(header),
                  "# dpcube-build-seconds construction=%.6f budget=%.6f "
                  "measure=%.6f consistency=%.6f total=%.6f\n",
                  build_timings->construction_seconds,
                  build_timings->budget_seconds,
                  build_timings->measure_seconds,
                  build_timings->consistency_seconds,
                  build_timings->total_seconds);
    buf += header;
  }
  buf += "mask,cell,value\n";
  constexpr std::size_t kFlushBytes = std::size_t{1} << 16;
  for (const marginal::MarginalTable& m : marginals) {
    for (std::size_t g = 0; g < m.num_cells(); ++g) {
      AppendUint(m.alpha(), &buf);
      buf += ',';
      AppendUint(g, &buf);
      buf += ',';
      AppendDouble(m.value(g), &buf);
      buf += '\n';
      if (buf.size() >= kFlushBytes) {
        out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
      }
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out.flush();
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::OK();
}

Result<LoadedRelease> ReadReleaseCsv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::string text;
  char chunk[1 << 14];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  // Every line, the last included, ends in a newline from here on, so the
  // bytes left from a line's start bound the lines the file still holds.
  if (!text.empty() && text.back() != '\n') text += '\n';

  std::string_view rest = text;
  std::size_t line_no = 0;
  auto next_line = [&](std::string_view* line) {
    if (rest.empty()) return false;
    *line = NextField(&rest, '\n');
    ++line_no;
    return true;
  };
  auto bad_line = [&](const std::string& what) {
    return Status::InvalidArgument("'" + path + "' line " +
                                   std::to_string(line_no) + ": " + what);
  };

  std::string_view line;
  constexpr std::string_view kReleaseHeader = "# dpcube-release d=";
  if (!next_line(&line) || line.substr(0, kReleaseHeader.size()) !=
                               kReleaseHeader) {
    return Status::InvalidArgument("'" + path + "': missing release header");
  }
  unsigned parsed_d = 0;
  if (!ParseWhole(line.substr(kReleaseHeader.size()), &parsed_d) ||
      parsed_d > 63) {
    return bad_line("bad dimensionality (want 0..63)");
  }
  const int d = static_cast<int>(parsed_d);
  const bits::Mask domain = bits::FullMask(d);
  LoadedRelease release;
  if (!next_line(&line)) {
    return Status::InvalidArgument("'" + path + "': missing column header");
  }
  constexpr std::string_view kVarianceHeader = "# dpcube-cell-variances";
  if (line.substr(0, kVarianceHeader.size()) == kVarianceHeader) {
    line.remove_prefix(kVarianceHeader.size());
    while (!line.empty()) {
      const std::string_view field = NextField(&line, ' ');
      if (field.empty()) continue;
      double v = 0.0;
      if (!ParseWhole(field, &v)) return bad_line("bad cell variance");
      release.cell_variances.push_back(v);
    }
    if (!next_line(&line)) {
      return Status::InvalidArgument("'" + path + "': missing column header");
    }
  }
  constexpr std::string_view kBuildHeader = "# dpcube-build-seconds";
  if (line.substr(0, kBuildHeader.size()) == kBuildHeader) {
    line.remove_prefix(kBuildHeader.size());
    while (!line.empty()) {
      std::string_view field = NextField(&line, ' ');
      const std::string_view key = NextField(&field, '=');
      double value = 0.0;
      // Tolerated, like any unknown comment content.
      if (!ParseWhole(field, &value)) continue;
      if (key == "construction") {
        release.build_timings.construction_seconds = value;
      } else if (key == "budget") {
        release.build_timings.budget_seconds = value;
      } else if (key == "measure") {
        release.build_timings.measure_seconds = value;
      } else if (key == "consistency") {
        release.build_timings.consistency_seconds = value;
      } else if (key == "total") {
        release.build_timings.total_seconds = value;
      }
    }
    release.has_build_timings = true;
    if (!next_line(&line)) {
      return Status::InvalidArgument("'" + path + "': missing column header");
    }
  }
  if (line != "mask,cell,value") {
    return Status::InvalidArgument("'" + path + "': missing column header");
  }

  // "m,c,v\n" is the shortest data line, so a sixth of the bytes bounds
  // the lines: neither one marginal's cells nor all of them together may
  // outnumber the lines that hold them.
  const std::size_t data_lines = rest.size() / 6;
  std::uint64_t cells = 0;  // Cells of the marginals read so far.
  std::vector<bits::Mask> masks;
  for (;;) {
    const std::size_t max_lines = rest.size() / 6;
    if (!next_line(&line)) break;
    if (line.empty()) continue;
    bits::Mask mask = 0;
    std::uint64_t cell = 0;
    double value = 0.0;
    if (!ParseWhole(NextField(&line, ','), &mask) ||
        !ParseWhole(NextField(&line, ','), &cell) ||
        !ParseWhole(line, &value)) {
      return bad_line("malformed or non-numeric field");
    }
    if (release.marginals.empty() ||
        release.marginals.back().alpha() != mask) {
      if ((mask & ~domain) != 0) {
        return bad_line("mask has bits outside d=" + std::to_string(d));
      }
      const std::uint64_t size = std::uint64_t{1} << bits::Popcount(mask);
      if (size > max_lines || cells + size > data_lines) {
        return bad_line("marginal has more cells than the file has lines");
      }
      cells += size;
      masks.push_back(mask);
      release.marginals.emplace_back(mask, d);
    }
    marginal::MarginalTable& table = release.marginals.back();
    if (cell >= table.num_cells()) {
      return Status::OutOfRange("'" + path + "' line " +
                                std::to_string(line_no) +
                                ": cell index out of range");
    }
    table.value(cell) = value;
  }
  if (!release.cell_variances.empty() &&
      release.cell_variances.size() != release.marginals.size()) {
    return Status::InvalidArgument(
        "'" + path + "': cell-variance count does not match marginal count");
  }
  release.workload = marginal::Workload(d, std::move(masks));
  return release;
}

}  // namespace engine
}  // namespace dpcube
