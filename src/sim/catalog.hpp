// Static catalog of the simulated consumer-SSD population: vendors, models,
// firmware versions, SMART attribute names (paper Table II), WindowsEvent
// types (Table III), BlueScreenOfDeath codes (Table IV), and the RaSRF
// trouble-ticket taxonomy (Table I).
//
// The numbers mirror the paper's Table VI population: four vendors (I..IV),
// twelve M.2 NVMe models, per-vendor firmware version counts {5,3,2,2} with
// "earlier firmware fails more" multipliers (Observation #2 / Fig. 3).
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace mfpa::sim {

// ---------------------------------------------------------------------------
// SMART attributes (paper Table II; NVMe health-log derived, 16 attributes)
// ---------------------------------------------------------------------------

/// Column indices into the SMART value array. Order matches Table II.
enum class SmartAttr : std::size_t {
  kCriticalWarning = 0,
  kCompositeTemperature,
  kAvailableSpare,
  kAvailableSpareThreshold,
  kPercentageUsed,
  kDataUnitsRead,
  kDataUnitsWritten,
  kHostReadCommands,
  kHostWriteCommands,
  kControllerBusyTime,
  kPowerCycles,
  kPowerOnHours,
  kUnsafeShutdowns,
  kMediaErrors,          // Media and Data Integrity Errors
  kErrorLogEntries,      // Number of Error Information Log Entries
  kCapacity,
};

inline constexpr std::size_t kNumSmartAttrs = 16;

/// The SMART attributes that are cumulative counters: validation flags one
/// that decreases, the fault injector's counter reset restarts them, and
/// lenient ingestion re-bases such a reset (core/robust_ingest.hpp).
inline constexpr std::array<SmartAttr, 6> kMonotoneCounters = {
    SmartAttr::kPowerOnHours,    SmartAttr::kPowerCycles,
    SmartAttr::kDataUnitsRead,   SmartAttr::kDataUnitsWritten,
    SmartAttr::kMediaErrors,     SmartAttr::kErrorLogEntries,
};

/// Canonical feature names ("S_1".."S_16" plus human-readable description).
const std::array<std::string, kNumSmartAttrs>& smart_attr_names();
const std::array<std::string, kNumSmartAttrs>& smart_attr_descriptions();

// ---------------------------------------------------------------------------
// WindowsEvent types (paper Table III; 9 tracked event ids)
// ---------------------------------------------------------------------------

struct WindowsEventType {
  int id;                   ///< Windows event id (e.g. 161)
  std::string name;         ///< "W_161"
  std::string description;  ///< Table III description
};

inline constexpr std::size_t kNumWindowsEvents = 9;
const std::array<WindowsEventType, kNumWindowsEvents>& windows_event_types();

/// Position of event id in the tracked array; throws std::out_of_range.
std::size_t windows_event_index(int id);

// ---------------------------------------------------------------------------
// BlueScreenOfDeath codes (paper Table IV; 23 tracked stop codes).
// Table IV of the paper prints 22 rows but the feature-group table (Table V)
// counts 23 B attributes; we add 0x7B INACCESSIBLE_BOOT_DEVICE — the
// canonical storage-related stop code — as the reconstructed 23rd entry.
// ---------------------------------------------------------------------------

struct BsodCodeType {
  int code;                 ///< stop code (e.g. 0x7A)
  std::string name;         ///< "B_7A"
  std::string description;  ///< stop-code symbolic name
};

inline constexpr std::size_t kNumBsodCodes = 23;
const std::array<BsodCodeType, kNumBsodCodes>& bsod_code_types();

/// Position of stop code in the tracked array; throws std::out_of_range.
std::size_t bsod_code_index(int code);

// ---------------------------------------------------------------------------
// RaSRF trouble-ticket taxonomy (paper Table I)
// ---------------------------------------------------------------------------

/// Failure manifestation level.
enum class FailureLevel { kDriveLevel, kSystemLevel };

/// Ticket category. Percentages from Table I; the two boot/shutdown rows
/// whose values are illegible in the source scan are reconstructed so the
/// category group sums match the paper's totals (48.21% boot/shutdown).
enum class TicketCategory : std::size_t {
  // Drive level (31.62% total)
  kStorageDriveFailure = 0,      // 31.13%
  kFirmwareUpgradeFailure,       //  0.42%
  kOvertemperature,              //  0.07%
  // System level: boot/shutdown (48.21% total)
  kBlueBlackScreenAfterStartup,  // 21.44%
  kUnableToBootShutdown,         // 18.57% (reconstructed)
  kBootloop,                     //  5.00% (reconstructed)
  kStuckStartupIcon,             //  3.20%
  // System level: running (19.39% total)
  kResponseDelayBlueScreen,      //  8.66%
  kUnauthorizedSystemInstall,    //  5.43%
  kSystemPartitionDamage,        //  2.58%
  kAutomaticShutdownRestart,     //  1.94%
  kSystemUpgradeRecoveryFailure, //  0.78%
  // System level: application (0.77%)
  kAppsCrash,                    //  0.77%
};

inline constexpr std::size_t kNumTicketCategories = 13;

struct TicketCategoryInfo {
  TicketCategory category;
  FailureLevel level;
  std::string group;        ///< "Components failure", "Boot/Shutdown failure", ...
  std::string description;  ///< Table I cause text
  double fraction;          ///< population fraction (sums to ~1 across rows)
};

const std::array<TicketCategoryInfo, kNumTicketCategories>& ticket_categories();
const TicketCategoryInfo& ticket_category_info(TicketCategory c);

// ---------------------------------------------------------------------------
// Vendors / models / firmware (paper Table VI + Fig. 3)
// ---------------------------------------------------------------------------

struct FirmwareConfig {
  std::string version;       ///< vendor naming, e.g. "I_F_1"
  double failure_multiplier; ///< relative hazard vs vendor baseline (Fig. 3)
  double market_share;       ///< fraction of the vendor fleet shipped with it
};

struct ModelConfig {
  std::string name;       ///< e.g. "I-M256"
  int capacity_gb;        ///< 128..1024
  int flash_layers;       ///< 32..96 (3D TLC)
  double fleet_fraction;  ///< fraction of the vendor fleet
};

/// Mix of failure archetypes for a vendor; fractions sum to 1.
/// Archetypes control which precursors (SMART vs W/B) a failing drive emits.
struct ArchetypeMix {
  double wearout = 0.25;     ///< gradual wear: strong SMART precursors
  double media = 0.30;       ///< media errors: SMART + paging W/B signals
  double controller = 0.25;  ///< controller faults: weak SMART, strong W/B
  double sudden = 0.20;      ///< abrupt death: W/B burst only, little SMART
};

struct VendorConfig {
  std::string name;                     ///< "I".."IV"
  std::size_t fleet_size;               ///< Table VI "Total" (at scale 1)
  double replacement_rate;              ///< Table VI "Sum_RR"
  std::vector<FirmwareConfig> firmware; ///< chronological (earliest first)
  std::vector<ModelConfig> models;
  ArchetypeMix archetypes;
};

inline constexpr std::size_t kNumVendors = 4;

/// The paper's four-vendor catalog (12 models in total).
const std::array<VendorConfig, kNumVendors>& vendor_catalog();

}  // namespace mfpa::sim
