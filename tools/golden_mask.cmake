# The mask every masked golden goes through: each `*Ms` field, ulid and pid
# becomes "*", so a golden holds what a run decided and learned, not how
# long it took or which process ran it. journal_golden.cmake include()s it;
# batch_loop_digests.py runs it as a script:
#   cmake -DIN=<file> -DOUT=<file> -P golden_mask.cmake

# Masks the text held in the variable named `var`, in place.
function(mask_golden_text var)
  set(text "${${var}}")
  string(REGEX REPLACE "\"([A-Za-z]*Ms)\":[-+.0-9eE]+" "\"\\1\":\"*\""
         text "${text}")
  string(REGEX REPLACE "\"ulid\":\"[^\"]*\"" "\"ulid\":\"*\"" text "${text}")
  string(REGEX REPLACE "\"pid\":[0-9]+" "\"pid\":\"*\"" text "${text}")
  set(${var} "${text}" PARENT_SCOPE)
endfunction()

if(CMAKE_SCRIPT_MODE_FILE STREQUAL CMAKE_CURRENT_LIST_FILE)
  if(NOT DEFINED IN OR NOT DEFINED OUT)
    message(FATAL_ERROR "usage: cmake -DIN=<file> -DOUT=<file> -P golden_mask.cmake")
  endif()
  file(READ "${IN}" text)
  mask_golden_text(text)
  file(WRITE "${OUT}" "${text}")
endif()
