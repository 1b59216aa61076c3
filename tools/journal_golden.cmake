# Pins against tests/golden/ the journals of `mui integrate --journal-out`
# for the bci firmware (in-process mirror, C shim, mirror behind the
# reference adapter), the watchdog fixture device (in process and behind the
# reference adapter), railcab rearShipped/rearFaulty and the five watchdog
# devices, the `--out` rows and journal of `mui batch
# examples/presolve_campaign.manifest --jobs 1` (presolve witnesses and
# depths), and the `--out` rows of the integration and bci campaigns. Every
# `*Ms` field, ulid and pid is masked, so a golden holds what the run
# decided and learned, not how long it took (golden_mask.cmake). Invoked
# as the ctest journal_goldens from tools/CMakeLists.txt:
#   cmake -DMUI=<mui> -DSOURCE=<repo root> -DOUT=<output dir>
#         -P journal_golden.cmake
# with MUI_ADAPTER_PATH pointing at the adapter binaries. Regenerate the
# goldens (then say in CHANGES.md which fields moved) with
#   MUI_REGENERATE_GOLDENS=1 ctest --test-dir build -R journal_goldens
set(runs
    "bci|models/bci.muml|BciSession|firmware|firmwareRef"
    "bci|models/bci.muml|BciSession|firmware|bciFirmware"
    "bci|models/bci.muml|BciSession|firmware|bciSim"
    "hang_external|tests/fixtures/hang_external.muml|Watchdog|device|deviceImpl"
    "hang_external|tests/fixtures/hang_external.muml|Watchdog|device|deviceOk"
    "railcab|models/railcab.muml|DistanceCoordination|rearRole|rearShipped"
    "railcab|models/railcab.muml|DistanceCoordination|rearRole|rearFaulty"
    "watchdog|models/watchdog.muml|Watchdog|device|deviceCompliant"
    "watchdog|models/watchdog.muml|Watchdog|device|deviceSlow"
    "watchdog|models/watchdog.muml|Watchdog|device|deviceCrawl"
    "watchdog|models/watchdog.muml|Watchdog|device|deviceMute"
    "watchdog|models/watchdog.muml|Watchdog|device|deviceDeaf")
include("${CMAKE_CURRENT_LIST_DIR}/golden_mask.cmake")
file(MAKE_DIRECTORY "${OUT}")
set(failures "")

# Masks `file` and writes it to, or compares it with, tests/golden/<name>.
function(check_golden file name)
  file(READ "${file}" text)
  mask_golden_text(text)
  set(golden "${SOURCE}/tests/golden/${name}")
  if("$ENV{MUI_REGENERATE_GOLDENS}" STREQUAL "1")
    file(WRITE "${golden}" "${text}")
    message(STATUS "wrote ${golden}")
    return()
  endif()
  file(READ "${golden}" expected)
  if(NOT text STREQUAL expected)
    set(failures "${failures}\n${golden} differs; masked output:\n${text}"
        PARENT_SCOPE)
  endif()
endfunction()

# Exit codes 0 (proven) and 1 (real error) are both verdicts; 2 is not.
foreach(run IN LISTS runs)
  string(REPLACE "|" ";" fields "${run}")
  list(GET fields 0 stem)
  list(GET fields 1 model)
  list(GET fields 2 pattern)
  list(GET fields 3 role)
  list(GET fields 4 hidden)
  set(journal "${OUT}/${stem}.${hidden}.jsonl")
  file(REMOVE "${journal}")
  execute_process(COMMAND "${MUI}" integrate "${SOURCE}/${model}" ${pattern}
                          ${role} ${hidden} --journal-out "${journal}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc MATCHES "^[01]$")
    message(FATAL_ERROR "mui integrate ${model} ${hidden} exited ${rc}:\n"
                        "${out}${err}")
  endif()
  check_golden("${journal}" "${stem}.${hidden}.journal.jsonl")
endforeach()

# The masked `--out` rows of the presolve, integration and bci campaigns,
# and the presolve campaign's journal. Run from the repo root so the rows
# name the models by relative path; the bci adapters resolve through
# MUI_ADAPTER_PATH.
foreach(campaign presolve_campaign integration_campaign bci_campaign)
  set(rows "${OUT}/${campaign}.out.jsonl")
  set(journal "${OUT}/${campaign}.journal.jsonl")
  file(REMOVE "${rows}" "${journal}")
  execute_process(COMMAND "${MUI}" batch examples/${campaign}.manifest
                          --jobs 1 --out "${rows}" --journal-out "${journal}"
                  WORKING_DIRECTORY "${SOURCE}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc MATCHES "^[01]$")
    message(FATAL_ERROR "mui batch ${campaign} exited ${rc}:\n"
                        "${out}${err}")
  endif()
  check_golden("${rows}" "${campaign}.out.jsonl")
  if(campaign STREQUAL "presolve_campaign")
    check_golden("${journal}" "${campaign}.journal.jsonl")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR "journal goldens differ:${failures}")
endif()
