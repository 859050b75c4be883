#pragma once
// Scatter-plot rendering of frames.
//
// The paper communicates frames as 2-D scatter plots (Figs. 1, 6, 8, 9).
// For terminal output we rasterise a frame into a character grid where each
// cell shows the densest cluster's symbol; for external plotting we emit a
// per-point CSV (x, y, cluster).

#include <string>

#include "cluster/frame.hpp"

namespace perftrack::cluster {

struct ScatterOptions {
  int width = 72;    ///< grid columns
  int height = 20;   ///< grid rows
  int x_axis = 0;    ///< projection dimension drawn on X
  int y_axis = 1;    ///< projection dimension drawn on Y
  bool log_y = false;  ///< render Y on a log10 scale
  bool show_noise = false;

  /// Optional fixed axis ranges (used to render several frames on common
  /// axes); NaN = derive from the frame.
  double x_min = nan_, x_max = nan_, y_min = nan_, y_max = nan_;

  /// Symbols to label clusters with; cluster id i uses symbols[i % size].
  std::string symbols = "123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";

  static constexpr double nan_ = __builtin_nan("");
};

/// Render the frame as an ASCII scatter plot with axis labels.
/// `relabel` (optional) maps frame-local object ids to display ids; pass
/// nullptr to use the frame's own numbering.
std::string ascii_scatter(const Frame& frame, const ScatterOptions& options,
                          const std::vector<std::int32_t>* relabel = nullptr);

}  // namespace perftrack::cluster
