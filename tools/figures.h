// The paper's figures and tables as one table of entries, run by
// `sbx_experiments figure <name>` (tools/figures.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace sbx::tools {

/// Prints every figure's name, experiment and paper reference.
int list_figures();

/// Runs figure `name`: its configurations in declaration order, then its
/// table, chart and closing text on stdout. Writes `<out_dir>/<name>.csv`
/// only when `out_dir` is set. Throws sbx::InvalidArgument for an unknown
/// name.
int run_figure(const std::string& name, bool quick, std::size_t threads,
               std::optional<std::uint64_t> seed,
               const std::optional<std::string>& out_dir);

}  // namespace sbx::tools
