(** The one audited length-prefixed framing codec, shared by every
    harness component that speaks over a byte stream: the
    {!Supervisor}'s parent↔child pipes and the {!Server}/{!Client}
    socket protocol.

    A {e frame} is a tag byte followed by a 4-byte big-endian payload
    length and the payload itself:

    {v  +-----+----+----+----+----+----------------+
        | tag |  length (int32, BE) |  payload ...  |
        +-----+----+----+----+----+----------------+ v}

    Some protocols also use {e bare} tags — a single byte with no
    length and no payload (the ['H'] a supervisor worker sends when it
    is ready for another task) — so a decoder is created with two tag
    alphabets: [tags] (framed) and [bare] (single-byte).

    {2 Robustness contract}

    Decoding is {e total}: any byte stream — truncated mid-frame,
    bit-flipped, or adversarial — produces either frames or a typed
    {!error}, never an exception.  A declared payload length is checked
    against [max_payload] {e before} any allocation proportional to it,
    so a hostile 2 GB length prefix costs nothing (the [wire-codec]
    fuzz target pins both properties).  A decoder that has reported an
    error is {e poisoned}: every later {!decode} returns the same
    error, because after garbage there is no way to re-synchronize a
    length-prefixed stream. *)

type error =
  | Unknown_tag of char
      (** the next byte is in neither tag alphabet — the stream is
          garbage or desynchronized *)
  | Negative_length of { tag : char }
      (** the length field's sign bit is set *)
  | Oversized of { tag : char; declared : int; limit : int }
      (** the declared payload length exceeds the decoder's
          [max_payload]; nothing was allocated *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type frame = { tag : char; payload : string }
(** A decoded frame.  Bare tags decode with [payload = ""]. *)

val default_max_payload : int
(** [16 MiB] — the default allocation cap per frame. *)

val encode : tag:char -> string -> bytes
(** [encode ~tag payload] is the framed wire image, [5 + length payload]
    bytes.  @raise Invalid_argument if the payload exceeds the int32
    range (it could not be decoded on any peer). *)

val encode_bare : char -> bytes
(** The one-byte wire image of a bare tag. *)

val write_all : Unix.file_descr -> bytes -> unit
(** Write the whole buffer to a blocking descriptor, restarting on
    [EINTR].  @raise Unix.Unix_error on any other write error. *)

val crc32 : string -> int
(** IEEE 802.3 CRC-32 (the zlib/PNG polynomial) of the whole string,
    as a non-negative int in [0, 0xFFFFFFFF].  Pure OCaml,
    table-driven; this is the integrity primitive behind the journal's
    v2 per-record checksums. *)

val crc32_update : int -> string -> int
(** [crc32_update crc s] extends a running {!crc32} with [s]:
    [crc32_update (crc32 a) b = crc32 (a ^ b)]. *)

type decoder
(** An incremental decoder over an internal buffer: {!feed} it raw
    bytes as they arrive, then {!decode} frames out of it.  Not
    domain-safe; use one decoder per stream. *)

val decoder :
  ?max_payload:int -> ?bare:string -> tags:string -> unit -> decoder
(** [decoder ~tags ()] accepts framed tags from the [tags] string and
    bare tags from [bare] (default none).  [max_payload] caps declared
    payload lengths (default {!default_max_payload}).
    @raise Invalid_argument if the alphabets overlap or [max_payload]
    is negative. *)

val feed : decoder -> bytes -> int -> int -> unit
(** [feed d buf off len] appends [len] bytes to the decoder's buffer.
    Feeding a poisoned decoder is a no-op (the error is sticky). *)

val feed_string : decoder -> string -> unit

val decode : decoder -> (frame option, error) result
(** [Ok (Some f)]: one complete frame, consumed from the buffer.
    [Ok None]: no complete frame yet — feed more bytes.
    [Error e]: typed decode failure; the decoder is poisoned and every
    subsequent call returns the same error. *)

val buffered : decoder -> int
(** Bytes fed but not yet consumed as frames. *)
