#include "eval/sweep.h"

#include <utility>

#include "eval/runner.h"
#include "util/error.h"
#include "util/strings.h"

namespace sbx::eval {

SweepAxis parse_sweep_axis(std::string_view spec) {
  std::size_t eq = spec.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    throw InvalidArgument("sweep axis '" + std::string(spec) +
                          "' is not of the form key=v1,v2,...");
  }
  SweepAxis axis;
  axis.key = std::string(spec.substr(0, eq));
  axis.values = util::split(spec.substr(eq + 1), ',');
  for (const auto& value : axis.values) {
    if (value.empty()) {
      throw InvalidArgument("sweep axis '" + std::string(spec) +
                            "' has an empty value");
    }
  }
  return axis;
}

std::vector<Config> expand_sweep(const Config& base,
                                 const std::vector<SweepAxis>& axes) {
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const SweepAxis& axis = axes[a];
    if (axis.values.empty()) {
      throw InvalidArgument("sweep axis '" + axis.key + "' has no values");
    }
    // A key on two axes would let the later axis overwrite the earlier
    // one in every config: a grid of duplicates under misleading labels.
    for (std::size_t b = 0; b < a; ++b) {
      if (axes[b].key == axis.key) {
        throw InvalidArgument("sweep axis key '" + axis.key +
                              "' appears on more than one axis");
      }
    }
    // Validate key and every value before expanding, so errors surface
    // once, before any trial runs.
    Config probe = base;
    for (const auto& value : axis.values) probe.set(axis.key, value);
  }

  std::vector<Config> grid = {base};
  // Row-major: the first axis varies slowest (outermost loop).
  for (const auto& axis : axes) {
    std::vector<Config> next;
    next.reserve(grid.size() * axis.values.size());
    for (const auto& config : grid) {
      for (const auto& value : axis.values) {
        Config expanded = config;
        expanded.set(axis.key, value);
        next.push_back(std::move(expanded));
      }
    }
    grid = std::move(next);
  }
  return grid;
}

SweepResult run_sweep(const Experiment& experiment, const Config& base,
                      const std::vector<SweepAxis>& axes,
                      const SweepOptions& options) {
  SweepResult result;
  result.experiment = &experiment;
  result.axes = axes;
  result.configs = expand_sweep(base, axes);
  result.docs.resize(result.configs.size());

  // Whole configs are top-level Runner trials: streams pre-forked in
  // program order (unused by the trials — each config carries its own
  // "seed" — but the contract keeps sweep behaviour uniform with every
  // other driver), results merged in config order on the calling thread.
  const std::uint64_t sweep_seed =
      base.has("seed") ? base.get_uint("seed") : 0;
  Runner runner(sweep_seed, options.threads);
  RunContext ctx;
  ctx.threads = options.experiment_threads;
  const std::size_t total = result.configs.size();
  runner.map_reduce(
      total, /*salt=*/0,
      [&](std::size_t i, util::Rng&) {
        return experiment.run(result.configs[i], ctx);
      },
      [&](std::size_t i, ResultDoc doc) {
        result.docs[i] = std::move(doc);
        if (options.progress) options.progress(i, total);
      });
  return result;
}

util::Table SweepResult::summary() const {
  std::vector<std::string> headers = {"config"};
  for (const auto& axis : axes) headers.push_back(axis.key);
  std::vector<std::string> metric_names;
  if (!docs.empty()) {
    for (const auto& [name, value] : docs.front().metrics) {
      (void)value;
      metric_names.push_back(name);
      headers.push_back(name);
    }
  }
  util::Table table(headers);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    std::vector<std::string> row = {std::to_string(i)};
    for (const auto& axis : axes) {
      std::string value;
      for (const auto& [key, v] : configs[i].items()) {
        if (key == axis.key) {
          value = v;
          break;
        }
      }
      row.push_back(value);
    }
    for (const auto& name : metric_names) {
      std::string cell = "-";
      for (const auto& [metric, value] : docs[i].metrics) {
        if (metric == name) {
          cell = json_number(value);  // locale-independent round-trip form
          break;
        }
      }
      row.push_back(cell);
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace sbx::eval
