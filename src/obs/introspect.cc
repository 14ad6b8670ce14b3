#include "obs/introspect.h"

#include <cmath>

namespace srp {
namespace obs {

IntrospectionSink::~IntrospectionSink() = default;

void IntrospectionSink::OnCandidateVariations(const double* /*values*/,
                                              size_t /*count*/) {}

void IntrospectionSink::OnHeapPop(double /*variation*/) {}

void IntrospectionSink::OnIteration(size_t /*iteration*/, double /*variation*/,
                                    double /*information_loss*/,
                                    size_t /*groups*/, bool /*accepted*/) {}

void IntrospectionSink::OnMergeRound(size_t /*factor*/,
                                     double /*information_loss*/,
                                     size_t /*groups*/, bool /*accepted*/) {}

void RecordingIntrospectionSink::OnCandidateVariations(const double* values,
                                                       size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const double value = values[i];
    if (!std::isfinite(value)) continue;
    ++record_.variation_count;
    if (value > 1.0) {
      ++record_.variation_overflow;
      continue;
    }
    size_t bucket = value < 0.0
                        ? 0
                        : static_cast<size_t>(value *
                                              kVariationHistogramBuckets);
    if (bucket >= kVariationHistogramBuckets) {
      bucket = kVariationHistogramBuckets - 1;  // value == 1.0
    }
    ++record_.variation_histogram[bucket];
  }
}

void RecordingIntrospectionSink::OnHeapPop(double variation) {
  record_.variation_series.push_back(variation);
}

void RecordingIntrospectionSink::OnIteration(size_t /*iteration*/,
                                             double /*variation*/,
                                             double information_loss,
                                             size_t /*groups*/,
                                             bool accepted) {
  record_.ifl_series.push_back(information_loss);
  record_.ifl_accepted.push_back(accepted);
}

void RecordingIntrospectionSink::OnMergeRound(size_t factor,
                                              double information_loss,
                                              size_t groups, bool accepted) {
  record_.merge_rounds.push_back(
      IntrospectionMergeRound{factor, information_loss, groups, accepted});
}

JsonValue IntrospectionRecord::ToJson() const {
  JsonValue doc = JsonValue::Object();

  JsonValue ifl = JsonValue::Array();
  for (double value : ifl_series) ifl.Append(value);
  doc.Set("ifl_series", std::move(ifl));

  JsonValue accepted = JsonValue::Array();
  for (bool value : ifl_accepted) accepted.Append(value);
  doc.Set("ifl_accepted", std::move(accepted));

  JsonValue variations = JsonValue::Array();
  for (double value : variation_series) variations.Append(value);
  doc.Set("variation_series", std::move(variations));

  JsonValue histogram = JsonValue::Object();
  histogram.Set("buckets", JsonValue(static_cast<int64_t>(
                               kVariationHistogramBuckets)));
  histogram.Set("count", JsonValue(variation_count));
  histogram.Set("overflow", JsonValue(variation_overflow));
  JsonValue counts = JsonValue::Array();
  for (int64_t count : variation_histogram) counts.Append(count);
  histogram.Set("counts", std::move(counts));
  doc.Set("variation_histogram", std::move(histogram));

  if (!merge_rounds.empty()) {
    JsonValue rounds = JsonValue::Array();
    for (const IntrospectionMergeRound& round : merge_rounds) {
      JsonValue entry = JsonValue::Object();
      entry.Set("factor", JsonValue(static_cast<int64_t>(round.factor)));
      entry.Set("information_loss", JsonValue(round.information_loss));
      entry.Set("groups", JsonValue(static_cast<int64_t>(round.groups)));
      entry.Set("accepted", JsonValue(round.accepted));
      rounds.Append(std::move(entry));
    }
    doc.Set("merge_rounds", std::move(rounds));
  }
  return doc;
}

}  // namespace obs
}  // namespace srp
