# Compare a spool directory with a committed SHA-256 list in sha256sum
# format ("<digest>  <file name>" per line): the spool must hold exactly
# the listed files, each with its listed digest.
#
#   cmake -DSPOOL=<spool dir> -DLIST=<digest list> -P spool_digests.cmake
foreach(var SPOOL LIST)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "spool_digests.cmake: -D${var}= is required")
  endif()
endforeach()

file(STRINGS ${LIST} lines)
file(GLOB present RELATIVE ${SPOOL} ${SPOOL}/*)
list(LENGTH lines want_count)
list(LENGTH present have_count)
if(NOT want_count EQUAL have_count)
  message(FATAL_ERROR
    "${SPOOL} holds ${have_count} files, ${LIST} lists ${want_count}")
endif()
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
    message(FATAL_ERROR "malformed line in ${LIST}: ${line}")
  endif()
  set(want ${CMAKE_MATCH_1})
  set(name ${CMAKE_MATCH_2})
  if(NOT EXISTS ${SPOOL}/${name})
    message(FATAL_ERROR "${SPOOL}/${name} is missing")
  endif()
  file(SHA256 ${SPOOL}/${name} have)
  if(NOT have STREQUAL want)
    message(FATAL_ERROR "${name}: sha256 ${have}, expected ${want}")
  endif()
endforeach()
message(STATUS "${want_count} spool files match ${LIST}")
