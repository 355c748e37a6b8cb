/* A positioned read the page cache serves without blocking, made while
   the calling thread keeps the OCaml runtime lock.

   [fb_log_pread_nowait fd buf pos len off] is one preadv2(2) with
   RWF_NOWAIT of [len] bytes at file offset [off] into [buf] from [pos].
   It returns the bytes read (a short count when only part of the range
   is cached, 0 at end of file), -1 when the kernel answers that the read
   would block (EAGAIN) or it fails, and -2 when the system cannot make
   such a read at all: a build without preadv2/RWF_NOWAIT, or a kernel or
   filesystem that refuses the flag.  lib/chunk/log_store.ml reads what
   this leaves through Unix.lseek and Unix.read, which release the lock.

   The stub neither allocates nor raises nor releases the runtime lock, so
   it is declared [@@noalloc] and the collector cannot move [buf] under
   the read.  log_store.ml checks [pos]/[len] against the buffer. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/types.h>
#include <caml/mlvalues.h>

#if defined(__linux__)
#include <sys/uio.h>
#endif

value fb_log_pread_nowait(value fd, value buf, value pos, value len, value off)
{
#if defined(__linux__) && defined(RWF_NOWAIT)
  struct iovec iov;
  ssize_t n;
  iov.iov_base = (char *)Bytes_val(buf) + Long_val(pos);
  iov.iov_len = (size_t)Long_val(len);
  n = preadv2(Int_val(fd), &iov, 1, (off_t)Long_val(off), RWF_NOWAIT);
  if (n >= 0) return Val_long(n);
  if (errno == ENOSYS || errno == EOPNOTSUPP || errno == EINVAL)
    return Val_long(-2);
  return Val_long(-1);
#else
  (void)fd; (void)buf; (void)pos; (void)len; (void)off;
  return Val_long(-2);
#endif
}
