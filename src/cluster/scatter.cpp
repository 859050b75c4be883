#include "cluster/scatter.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace perftrack::cluster {

namespace {
bool is_nan(double v) { return std::isnan(v); }

double axis_value(double raw, bool log_scale) {
  return log_scale ? std::log10(std::max(raw, 1e-12)) : raw;
}
}  // namespace

std::string ascii_scatter(const Frame& frame, const ScatterOptions& options,
                          const std::vector<std::int32_t>* relabel) {
  PT_REQUIRE(options.width > 2 && options.height > 1,
             "scatter grid too small");
  const Projection& proj = frame.projection();
  PT_REQUIRE(static_cast<std::size_t>(options.x_axis) < proj.points.dims() &&
                 static_cast<std::size_t>(options.y_axis) < proj.points.dims(),
             "axis index out of range");

  const auto xa = static_cast<std::size_t>(options.x_axis);
  const auto ya = static_cast<std::size_t>(options.y_axis);

  double x_min = options.x_min, x_max = options.x_max;
  double y_min = options.y_min, y_max = options.y_max;
  if (is_nan(x_min) || is_nan(x_max) || is_nan(y_min) || is_nan(y_max)) {
    double fx_min = 1e300, fx_max = -1e300, fy_min = 1e300, fy_max = -1e300;
    for (std::size_t row = 0; row < proj.size(); ++row) {
      if (!options.show_noise && frame.labels()[row] == kNoise) continue;
      auto p = proj.points[row];
      fx_min = std::min(fx_min, p[xa]);
      fx_max = std::max(fx_max, p[xa]);
      fy_min = std::min(fy_min, p[ya]);
      fy_max = std::max(fy_max, p[ya]);
    }
    if (fx_min > fx_max) {  // empty frame
      fx_min = fy_min = 0.0;
      fx_max = fy_max = 1.0;
    }
    if (is_nan(x_min)) x_min = fx_min;
    if (is_nan(x_max)) x_max = fx_max;
    if (is_nan(y_min)) y_min = fy_min;
    if (is_nan(y_max)) y_max = fy_max;
  }
  double ylo = axis_value(y_min, options.log_y);
  double yhi = axis_value(y_max, options.log_y);
  if (x_max <= x_min) x_max = x_min + 1.0;
  if (yhi <= ylo) yhi = ylo + 1.0;

  const int w = options.width, h = options.height;
  // cell -> votes per display id; densest id wins the glyph.
  std::vector<std::map<std::int32_t, int>> votes(
      static_cast<std::size_t>(w * h));

  for (std::size_t row = 0; row < proj.size(); ++row) {
    std::int32_t id = frame.labels()[row];
    if (id == kNoise && !options.show_noise) continue;
    std::int32_t display =
        (relabel && id != kNoise) ? (*relabel)[static_cast<std::size_t>(id)]
                                  : id;
    auto p = proj.points[row];
    double xt = (p[xa] - x_min) / (x_max - x_min);
    double yt = (axis_value(p[ya], options.log_y) - ylo) / (yhi - ylo);
    int cx = std::clamp(static_cast<int>(xt * (w - 1)), 0, w - 1);
    int cy = std::clamp(static_cast<int>(yt * (h - 1)), 0, h - 1);
    ++votes[static_cast<std::size_t>(cy * w + cx)][display];
  }

  std::string out;
  out += "  " + frame.label() + "\n";
  for (int gy = h - 1; gy >= 0; --gy) {
    std::string line = "  |";
    for (int gx = 0; gx < w; ++gx) {
      const auto& cell = votes[static_cast<std::size_t>(gy * w + gx)];
      if (cell.empty()) {
        line += ' ';
        continue;
      }
      auto best = cell.begin();
      for (auto it = cell.begin(); it != cell.end(); ++it)
        if (it->second > best->second) best = it;
      if (best->first == kNoise) {
        line += '.';
      } else {
        const std::string& sym = options.symbols;
        line += sym[static_cast<std::size_t>(best->first) % sym.size()];
      }
    }
    out += line + "\n";
  }
  out += "  +" + std::string(static_cast<std::size_t>(w), '-') + "\n";
  out += "   x: [" + format_si(x_min) + ", " + format_si(x_max) + "]  y: [" +
         format_si(y_min) + ", " + format_si(y_max) +
         (options.log_y ? "] (log)" : "]") + "\n";
  return out;
}

}  // namespace perftrack::cluster
