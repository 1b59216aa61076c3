# Pins the journals of `mui integrate --journal-out` for the bci firmware
# (in-process mirror, C shim, mirror behind the reference adapter) and the
# watchdog fixture device (in process and behind the reference adapter)
# against tests/golden/*.journal.jsonl. Every `*Ms` field, ulid and pid is
# masked, so a golden holds what the run decided and learned, not how long
# it took. Invoked as the ctest journal_goldens from tools/CMakeLists.txt:
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
    "hang_external|tests/fixtures/hang_external.muml|Watchdog|device|deviceOk")
file(MAKE_DIRECTORY "${OUT}")
set(failures "")
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
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mui integrate ${model} ${hidden} exited ${rc}:\n"
                        "${out}${err}")
  endif()
  file(READ "${journal}" text)
  string(REGEX REPLACE "\"([A-Za-z]*Ms)\":[-+.0-9eE]+" "\"\\1\":\"*\""
         text "${text}")
  string(REGEX REPLACE "\"ulid\":\"[^\"]*\"" "\"ulid\":\"*\"" text "${text}")
  string(REGEX REPLACE "\"pid\":[0-9]+" "\"pid\":\"*\"" text "${text}")
  set(golden "${SOURCE}/tests/golden/${stem}.${hidden}.journal.jsonl")
  if("$ENV{MUI_REGENERATE_GOLDENS}" STREQUAL "1")
    file(WRITE "${golden}" "${text}")
    message(STATUS "wrote ${golden}")
    continue()
  endif()
  file(READ "${golden}" expected)
  if(NOT text STREQUAL expected)
    string(APPEND failures "\n${golden} differs; masked journal:\n${text}")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "journal goldens differ:${failures}")
endif()
