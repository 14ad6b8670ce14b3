#include "data/datasets.h"

#include <algorithm>
#include <cmath>

#include "data/gaussian_field.h"
#include "fail/fault_injection.h"
#include "grid/grid_builder.h"
#include "obs/tracer.h"
#include "util/logging.h"
#include "util/random.h"

namespace srp {
namespace {

constexpr double kLatMin = 40.0;
constexpr double kLatMax = 41.0;
constexpr double kLonMin = -74.5;
constexpr double kLonMax = -73.5;

GeoExtent DefaultExtent() {
  return GeoExtent{kLatMin, kLatMax, kLonMin, kLonMax};
}

/// Shared spatial scaffolding of a simulated city: a density surface that
/// drives record counts and marks empty fringes, plus two independent smooth
/// "quality" surfaces that attribute values depend on.
struct CityFields {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<double> density;   // [0,1], record intensity
  std::vector<double> quality;   // [0,1], primary value driver
  std::vector<double> secondary; // [0,1], secondary value driver
  std::vector<uint8_t> empty;    // 1 = cell generates no records
};

CityFields MakeCityFields(const DatasetOptions& opts, uint64_t seed_offset) {
  CityFields f;
  f.rows = opts.rows;
  f.cols = opts.cols;
  FieldOptions fo;
  fo.rows = opts.rows;
  fo.cols = opts.cols;
  fo.base_scale = static_cast<double>(std::max<size_t>(opts.rows, 8)) / 5.0;
  fo.octaves = 3;
  fo.seed = opts.seed * 1315423911ULL + seed_offset;
  f.density = GenerateAutocorrelatedField(fo);
  fo.seed += 101;
  f.quality = GenerateAutocorrelatedField(fo);
  fo.seed += 101;
  f.secondary = GenerateAutocorrelatedField(fo);

  // Empty cells: the lowest-density fringe of the city. Thresholding the
  // smooth surface yields contiguous empty regions, like the water/parkland
  // gaps of the real grids. The threshold is one order statistic, so it is
  // selected, not sorted for.
  std::vector<double> order = f.density;
  const size_t cut = static_cast<size_t>(
      opts.empty_fraction * static_cast<double>(order.size()));
  const auto nth = order.begin() + std::min(cut, order.size() - 1);
  std::nth_element(order.begin(), nth, order.end());
  const double threshold = *nth;
  f.empty.resize(f.density.size());
  for (size_t i = 0; i < f.density.size(); ++i) {
    f.empty[i] = f.density[i] <= threshold ? 1 : 0;
  }
  return f;
}

/// Uniform position within cell (r, c) of the default extent.
void RandomPositionInCell(const CityFields& f, size_t r, size_t c, Rng* rng,
                          double* lat, double* lon) {
  const double lat_step = (kLatMax - kLatMin) / static_cast<double>(f.rows);
  const double lon_step = (kLonMax - kLonMin) / static_cast<double>(f.cols);
  *lat = kLatMin + (static_cast<double>(r) + rng->Uniform01()) * lat_step;
  *lon = kLonMin + (static_cast<double>(c) + rng->Uniform01()) * lon_step;
}

int RecordCount(const CityFields& f, size_t cell, const DatasetOptions& opts,
                Rng* rng) {
  if (f.empty[cell]) return 0;
  // Squaring the density surface sharpens the hotspot contrast so the count
  // attributes (pickups, jobs, requests) carry a strong spatial signal.
  const double d = f.density[cell];
  const double lambda = opts.records_per_cell * (0.15 + 2.5 * d * d);
  return std::max(1, rng->Poisson(lambda));
}

// Each simulator draws its records cell by cell and adds each one to the
// accumulator as soon as its fields are drawn, so no record is stored. The
// accumulator recomputes the record's cell from its coordinates, as for any
// other record.

// ---------------------------------------------------------------------------
// NYC taxi trips: fields = {passengers, distance, fare}.
// ---------------------------------------------------------------------------

void SimulateTaxiRecords(const CityFields& f, const DatasetOptions& opts,
                         Rng* rng, GridAccumulator* acc) {
  for (size_t r = 0; r < f.rows; ++r) {
    for (size_t c = 0; c < f.cols; ++c) {
      const size_t cell = r * f.cols + c;
      const int n = RecordCount(f, cell, opts, rng);
      for (int i = 0; i < n; ++i) {
        double lat = 0.0;
        double lon = 0.0;
        RandomPositionInCell(f, r, c, rng, &lat, &lon);
        const double passengers =
            1.0 + static_cast<double>(std::min(5, rng->Poisson(0.6)));
        // Trips from low-quality (peripheral) areas are longer on average.
        const double distance = (0.6 + 7.0 * (1.0 - f.quality[cell])) *
                                (0.7 + 0.6 * rng->Uniform01());
        // Fares carry a strong location surcharge (zone pricing, tolls) on
        // top of the metered distance, plus ride-level noise — so spatially
        // aware models have an edge over pure feature regressions.
        const double fare = 2.5 + 1.6 * distance +
                            14.0 * f.secondary[cell] +
                            rng->Normal(0.0, 2.5);
        const double fields[] = {passengers, distance, std::max(2.5, fare)};
        acc->Add(acc->CellOf(lat, lon), fields);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// King County home sales: fields =
// {price, bedrooms, bathrooms, living, lot, built, renovated}.
// ---------------------------------------------------------------------------

void SimulateHomeSaleRecords(const CityFields& f,
                             const DatasetOptions& options, Rng* rng,
                             GridAccumulator* acc) {
  // Home sales are sparse events: only a handful per cell per year, so the
  // cell-level averages stay noisy (as in the King County data) rather than
  // being smoothed by dozens of records.
  DatasetOptions opts = options;
  opts.records_per_cell = std::max(2.0, options.records_per_cell * 0.2);
  for (size_t r = 0; r < f.rows; ++r) {
    for (size_t c = 0; c < f.cols; ++c) {
      const size_t cell = r * f.cols + c;
      const int n = RecordCount(f, cell, opts, rng);
      for (int i = 0; i < n; ++i) {
        double lat = 0.0;
        double lon = 0.0;
        RandomPositionInCell(f, r, c, rng, &lat, &lon);
        // Individual homes vary a lot even within one neighborhood; the
        // wide multiplicative terms keep cell averages of a few sales noisy.
        const double living =
            600.0 + 3400.0 * f.secondary[cell] * (0.3 + 1.4 * rng->Uniform01());
        const double bedrooms = std::clamp(
            std::round(1.0 + living / 900.0 + rng->Normal(0.0, 0.8)), 1.0,
            6.0);
        const double bathrooms = std::clamp(
            std::round(bedrooms * 0.6 + rng->Normal(0.0, 0.6)), 1.0, 4.0);
        const double lot = living * (1.0 + 5.0 * rng->Uniform01());
        const double built =
            std::clamp(std::round(1900.0 + 115.0 * f.density[cell] +
                                  rng->Normal(0.0, 8.0)),
                       1900.0, 2015.0);
        const double renovated =
            rng->Bernoulli(0.3)
                ? std::clamp(built + 10.0 + 40.0 * rng->Uniform01(), built,
                             2015.0)
                : built;
        // Location premium is what makes the price surface spatially
        // structured (the "locality" a competent spatial model must learn).
        const double price = 50000.0 + 180.0 * living + 30000.0 * bathrooms +
                             12000.0 * bedrooms + 400.0 * (built - 1900.0) +
                             350000.0 * f.quality[cell] +
                             rng->Normal(0.0, 45000.0);
        const double fields[] = {std::max(30000.0, price), bedrooms,
                                 bathrooms, living, lot, built, renovated};
        acc->Add(acc->CellOf(lat, lon), fields);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Chicago abandoned vehicles: a univariate count of service requests.
// ---------------------------------------------------------------------------

void SimulateVehicleRecords(const CityFields& f, const DatasetOptions& opts,
                            Rng* rng, GridAccumulator* acc) {
  for (size_t r = 0; r < f.rows; ++r) {
    for (size_t c = 0; c < f.cols; ++c) {
      const size_t cell = r * f.cols + c;
      if (f.empty[cell]) continue;
      // Abandonment is concentrated in dense, low-quality areas; squaring
      // sharpens the spatial contrast of the count surface.
      const double q = 1.0 - f.quality[cell];
      const double lambda = opts.records_per_cell *
                            (0.1 + 2.0 * q * q) * (0.3 + f.density[cell]);
      const int n = std::max(1, rng->Poisson(lambda));
      for (int i = 0; i < n; ++i) {
        double lat = 0.0;
        double lon = 0.0;
        RandomPositionInCell(f, r, c, rng, &lat, &lon);
        acc->Add(acc->CellOf(lat, lon), nullptr);  // count only
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NYC block-level earnings: census-block records with land/water area, jobs
// in three monthly-earning bands and the bands' total (the univariate
// variant's one attribute): fields =
// {land, water, jobs_low, jobs_mid, jobs_high, total_jobs}.
// ---------------------------------------------------------------------------

void SimulateEarningsRecords(const CityFields& f, const DatasetOptions& opts,
                             Rng* rng, GridAccumulator* acc) {
  for (size_t r = 0; r < f.rows; ++r) {
    for (size_t c = 0; c < f.cols; ++c) {
      const size_t cell = r * f.cols + c;
      if (f.empty[cell]) continue;
      // A handful of census blocks per cell.
      const int blocks =
          std::max(1, rng->Poisson(0.5 * opts.records_per_cell));
      // A cell's total land area is (nearly) fixed terrain; the blocks
      // partition it, so per-block land is the cell total split across the
      // blocks with mild jitter. The summed attribute then stays a smooth
      // surface regardless of how many blocks a cell happens to have.
      const double cell_land = (80000.0 + 160000.0 * f.secondary[cell]) *
                               (0.95 + 0.1 * rng->Uniform01());
      for (int b = 0; b < blocks; ++b) {
        double lat = 0.0;
        double lon = 0.0;
        RandomPositionInCell(f, r, c, rng, &lat, &lon);
        const double land = cell_land / static_cast<double>(blocks) *
                            (0.9 + 0.2 * rng->Uniform01());
        const double water = rng->Bernoulli(0.15)
                                 ? 2000.0 + 18000.0 * rng->Uniform01()
                                 : 0.0;
        const double jobs_base = 12.0 * f.density[cell] * f.density[cell] *
                                 (0.8 + 0.4 * rng->Uniform01());
        const double jobs_low =
            rng->Poisson(jobs_base * (1.4 - f.quality[cell]));
        const double jobs_mid = rng->Poisson(jobs_base);
        const double jobs_high =
            rng->Poisson(jobs_base * (0.4 + 1.6 * f.quality[cell]));
        const double total_jobs = jobs_low + jobs_mid + jobs_high;
        const double fields[] = {land,     water,     jobs_low,
                                 jobs_mid, jobs_high, total_jobs};
        acc->Add(acc->CellOf(lat, lon), fields);
      }
    }
  }
}

std::vector<GridAttributeDef> DefsFor(DatasetKind kind) {
  using Source = GridAttributeDef::Source;
  switch (kind) {
    case DatasetKind::kTaxiTripMulti:
      return {
          {"pickups", Source::kCount, -1, AggType::kSum, true},
          {"passengers", Source::kSum, 0, AggType::kSum, true},
          {"total_distance", Source::kSum, 1, AggType::kSum, false},
          {"total_fare", Source::kSum, 2, AggType::kSum, false},
      };
    case DatasetKind::kTaxiTripUni:
      return {{"pickups", Source::kCount, -1, AggType::kSum, true}};
    case DatasetKind::kHomeSalesMulti:
      return {
          {"price", Source::kAverage, 0, AggType::kAverage, false},
          {"bedrooms", Source::kAverage, 1, AggType::kAverage, false},
          {"bathrooms", Source::kAverage, 2, AggType::kAverage, false},
          {"living_area", Source::kAverage, 3, AggType::kAverage, false},
          {"lot_area", Source::kAverage, 4, AggType::kAverage, false},
          {"build_year", Source::kAverage, 5, AggType::kAverage, true},
          {"renovation_year", Source::kAverage, 6, AggType::kAverage, true},
      };
    case DatasetKind::kVehiclesUni:
      return {{"service_requests", Source::kCount, -1, AggType::kSum, true}};
    case DatasetKind::kEarningsMulti:
      return {
          {"land_area", Source::kSum, 0, AggType::kSum, false},
          {"water_area", Source::kSum, 1, AggType::kSum, false},
          {"jobs_low", Source::kSum, 2, AggType::kSum, true},
          {"jobs_mid", Source::kSum, 3, AggType::kSum, true},
          {"jobs_high", Source::kSum, 4, AggType::kSum, true},
      };
    case DatasetKind::kEarningsUni:
      return {{"total_jobs", Source::kSum, 5, AggType::kSum, true}};
  }
  SRP_CHECK(false) << "unknown DatasetKind";
  return {};  // unreachable
}

}  // namespace

const std::vector<DatasetSpec>& AllDatasetSpecs() {
  static const std::vector<DatasetSpec>* const kSpecs =
      new std::vector<DatasetSpec>{
          {DatasetKind::kTaxiTripMulti, "taxi_trip_multivariate", true,
           "total_fare"},
          {DatasetKind::kHomeSalesMulti, "home_sales_multivariate", true,
           "price"},
          {DatasetKind::kEarningsMulti, "earnings_multivariate", true,
           "jobs_high"},
          {DatasetKind::kTaxiTripUni, "taxi_trip_univariate", false, ""},
          {DatasetKind::kVehiclesUni, "vehicles_univariate", false, ""},
          {DatasetKind::kEarningsUni, "earnings_univariate", false, ""},
      };
  return *kSpecs;
}

const DatasetSpec& SpecFor(DatasetKind kind) {
  for (const auto& spec : AllDatasetSpecs()) {
    if (spec.kind == kind) return spec;
  }
  SRP_CHECK(false) << "unknown DatasetKind";
  return AllDatasetSpecs().front();  // unreachable
}

Result<GridDataset> GenerateDataset(DatasetKind kind,
                                    const DatasetOptions& options) {
  SRP_TRACE_SPAN("data.generate");
  // Checked before anything is sized by rows * cols, the city fields first.
  SRP_RETURN_IF_ERROR(CheckGridDimensions(options.rows, options.cols));
  SRP_INJECT_FAULT("grid.build");
  Rng rng(options.seed * 2654435761ULL + static_cast<uint64_t>(kind));
  const CityFields fields =
      MakeCityFields(options, static_cast<uint64_t>(kind) * 7919ULL);

  // Simulated positions lie inside the default extent by construction, so
  // every record is aggregated and none is dropped.
  GridAccumulator acc(options.rows, options.cols, DefaultExtent(),
                      DefsFor(kind));
  switch (kind) {
    case DatasetKind::kTaxiTripMulti:
    case DatasetKind::kTaxiTripUni:
      SimulateTaxiRecords(fields, options, &rng, &acc);
      break;
    case DatasetKind::kHomeSalesMulti:
      SimulateHomeSaleRecords(fields, options, &rng, &acc);
      break;
    case DatasetKind::kVehiclesUni:
      SimulateVehicleRecords(fields, options, &rng, &acc);
      break;
    case DatasetKind::kEarningsMulti:
    case DatasetKind::kEarningsUni:
      SimulateEarningsRecords(fields, options, &rng, &acc);
      break;
  }
  return acc.Finish();
}

}  // namespace srp
