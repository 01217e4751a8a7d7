/**
 * @file
 * The paper's reported numbers, collected in one place so every bench
 * can print "paper vs measured" side by side (DESIGN.md Sec. 4). These
 * are *reference targets*, not calibration inputs — the calibration
 * constants live in the component configs and are derived in DESIGN.md.
 */

#ifndef APC_ANALYSIS_PAPER_REFERENCE_H
#define APC_ANALYSIS_PAPER_REFERENCE_H

namespace apc::analysis::paper {

// Table 1: SoC + DRAM power per package state (watts).
inline constexpr double kPc0SocW = 85.0;       // upper bound, full load
inline constexpr double kPc0DramW = 7.0;
inline constexpr double kPc0idleSocW = 44.0;
inline constexpr double kPc0idleDramW = 5.5;
inline constexpr double kPc6SocW = 12.0;       // 11.9 measured, Sec. 5.4
inline constexpr double kPc6DramW = 0.5;       // 0.51 measured
inline constexpr double kPc1aSocW = 27.5;
inline constexpr double kPc1aDramW = 1.6;

// Sec. 5.4 power deltas (watts).
inline constexpr double kPcoresDiffW = 12.1;
inline constexpr double kPiosDiffW = 3.5;
inline constexpr double kPdramDiffW = 1.1;
inline constexpr double kPpllsDiffW = 0.056;

// Sec. 5.5 transition latencies (nanoseconds).
inline constexpr double kPc1aEntryNs = 18.0;
inline constexpr double kPc1aExitNs = 150.0;
inline constexpr double kPc1aTotalNs = 200.0; // conservative bound
inline constexpr double kPc6TotalUs = 50.0;   // ">50us"
inline constexpr double kSpeedupVsPc6 = 250.0;

// Sec. 2 Eq. 1 estimates.
inline constexpr double kSavingsAt5pct = 0.23;
inline constexpr double kSavingsAt10pct = 0.17;
inline constexpr double kIdleSavings = 0.41;
inline constexpr double kAllCc1At5pct = 0.57;
inline constexpr double kAllCc1At10pct = 0.39;

// Sec. 5.1–5.3 area overheads (fractions of the SKX die).
inline constexpr double kAreaIosmWires = 0.0024;
inline constexpr double kAreaIosmLogic = 0.0008;
inline constexpr double kAreaClmrWires = 0.0014;
inline constexpr double kAreaApmu = 0.001;
inline constexpr double kAreaIncc1Wires = 0.0014;
inline constexpr double kAreaTotal = 0.0075;

// Fig. 6 (Memcached opportunity).
inline constexpr double kPc1aResidencyAt4k = 0.77;
inline constexpr double kPc1aResidencyAt50k = 0.20;
inline constexpr double kPc1aResidencyFloorAt100k = 0.12;
inline constexpr double kIdlePeriods20to200usLowLoad = 0.60;

// Fig. 7 (Memcached power/latency).
inline constexpr double kPowerSavingsAt4k = 0.37;
inline constexpr double kPowerSavingsAt50k = 0.14;
inline constexpr double kMaxAvgLatencyImpact = 0.001; // <0.1%
inline constexpr double kNetworkLatencyUs = 117.0;

// Fig. 8 (MySQL) and Fig. 9 (Kafka).
inline constexpr double kMysqlIdleResidencyLo = 0.20;
inline constexpr double kMysqlIdleResidencyHi = 0.37;
inline constexpr double kMysqlSavingsLo = 0.07;  // high load (42%)
inline constexpr double kMysqlSavingsMid = 0.10; // mid load (16%)
inline constexpr double kMysqlSavingsHi = 0.14;  // low load (8%)
inline constexpr double kKafkaResidencyLo = 0.15;
inline constexpr double kKafkaResidencyHi = 0.47;
inline constexpr double kKafkaSavingsLo = 0.09;
inline constexpr double kKafkaSavingsHi = 0.19;

// Memcached evaluation: energy savings up to 41%, 25% average (Sec. 1).
inline constexpr double kMemcachedMaxEnergySavings = 0.41;
inline constexpr double kMemcachedAvgEnergySavings = 0.25;

} // namespace apc::analysis::paper

#endif // APC_ANALYSIS_PAPER_REFERENCE_H
