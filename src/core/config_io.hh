/**
 * @file
 * Canonical serialization of ExperimentConfig and every nested struct.
 *
 * One JSON form is THE identity of a configuration: the sweep engine
 * derives its prepare/baseline cache keys from it, the checkpoint
 * journal keys jobs by it, and the driver's manifest.json records it.
 * The format is canonical in the strict sense:
 *
 *  - fields are emitted in declaration order, every field always
 *    present (no minimization), objects compact (no whitespace);
 *  - doubles are printed with %.17g, which strtod() reads back
 *    bit-exactly for every finite IEEE-754 value, and integers are
 *    printed in full (u64 values above 2^53 included);
 *  - therefore string equality of serializations is configuration
 *    equality.
 *
 * The form is written, never parsed back: it is a key and a record.
 *
 * Adding a field to ExperimentConfig (or a nested struct) without
 * updating the serializer here is caught by the field-count guard in
 * tests/test_config_io.cc — the failure mode the old hand-maintained
 * byte-appending cache keys in sweep.cc could not detect.
 */

#ifndef AXMEMO_CORE_CONFIG_IO_HH
#define AXMEMO_CORE_CONFIG_IO_HH

#include <string>

#include "core/experiment.hh"

namespace axmemo {

// Canonical compact-JSON serializers, one per configuration struct.
std::string toJson(const WorkloadParams &p);
std::string toJson(const LutSetup &l);
std::string toJson(const CacheConfig &c);
std::string toJson(const DramConfig &d);
std::string toJson(const HierarchyConfig &h);
std::string toJson(const AdaptiveTruncationConfig &a);
std::string toJson(const SwMemoConfig &s);
std::string toJson(const AtmConfig &a);
std::string toJson(const IactConfig &i);
std::string toJson(const EnergyParams &e);
std::string toJson(const CpuConfig &c);
std::string toJson(const ExperimentConfig &config);

} // namespace axmemo

#endif // AXMEMO_CORE_CONFIG_IO_HH
