type error =
  | Unknown_tag of char
  | Negative_length of { tag : char }
  | Oversized of { tag : char; declared : int; limit : int }

let pp_error ppf = function
  | Unknown_tag c -> Format.fprintf ppf "unexpected byte %C" c
  | Negative_length { tag } -> Format.fprintf ppf "negative frame length (tag %C)" tag
  | Oversized { tag; declared; limit } ->
      Format.fprintf ppf "oversized frame (tag %C): %d bytes declared, limit %d"
        tag declared limit

let error_to_string e = Format.asprintf "%a" pp_error e

type frame = { tag : char; payload : string }

let default_max_payload = 16 * 1024 * 1024

let encode ~tag payload =
  let n = String.length payload in
  if n > Int32.to_int Int32.max_int then
    invalid_arg "Wire.encode: payload exceeds the int32 frame-length range";
  let frame = Bytes.create (5 + n) in
  Bytes.set frame 0 tag;
  Bytes.set_int32_be frame 1 (Int32.of_int n);
  Bytes.blit_string payload 0 frame 5 n;
  frame

let encode_bare tag = Bytes.make 1 tag

let write_all fd buf =
  let rec go pos len =
    if len > 0 then
      match Unix.write fd buf pos len with
      | n -> go (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos len
  in
  go 0 (Bytes.length buf)

(* IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320), table-driven.
   Stays in [Wire] because it is the harness's shared integrity
   primitive: journal v2 record trailers checksum with it, and any
   future frame-level integrity layer would too. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_update crc s =
  let table = Lazy.force crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  String.iter
    (fun ch ->
      c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_update 0 s

type decoder = {
  tags : string;
  bare : string;
  max_payload : int;
  buf : Buffer.t;
  (* consumed prefix of [buf]; compacted when it grows past the live
     suffix so a long-lived stream doesn't accumulate dead bytes *)
  mutable pos : int;
  mutable poisoned : error option;
}

let decoder ?(max_payload = default_max_payload) ?(bare = "") ~tags () =
  if max_payload < 0 then invalid_arg "Wire.decoder: max_payload must be >= 0";
  String.iter
    (fun c ->
      if String.contains bare c then
        invalid_arg "Wire.decoder: a tag cannot be both framed and bare")
    tags;
  { tags; bare; max_payload; buf = Buffer.create 256; pos = 0; poisoned = None }

let live d = Buffer.length d.buf - d.pos

let compact d =
  if d.pos > 0 && d.pos >= live d then begin
    let rest = Buffer.sub d.buf d.pos (live d) in
    Buffer.clear d.buf;
    Buffer.add_string d.buf rest;
    d.pos <- 0
  end

let feed d buf off len =
  if d.poisoned = None && len > 0 then begin
    compact d;
    Buffer.add_subbytes d.buf buf off len
  end

let feed_string d s = feed d (Bytes.unsafe_of_string s) 0 (String.length s)

let buffered d = if d.poisoned = None then live d else 0

let poison d e =
  d.poisoned <- Some e;
  Buffer.clear d.buf;
  d.pos <- 0;
  Error e

let decode d =
  match d.poisoned with
  | Some e -> Error e
  | None ->
      let n = live d in
      if n = 0 then Ok None
      else
        let tag = Buffer.nth d.buf d.pos in
        if String.contains d.bare tag then begin
          d.pos <- d.pos + 1;
          compact d;
          Ok (Some { tag; payload = "" })
        end
        else if not (String.contains d.tags tag) then poison d (Unknown_tag tag)
        else if n < 5 then Ok None
        else
          let hdr = Bytes.of_string (Buffer.sub d.buf d.pos 5) in
          let len = Int32.to_int (Bytes.get_int32_be hdr 1) in
          if len < 0 then poison d (Negative_length { tag })
          else if len > d.max_payload then
            (* checked before any length-proportional allocation *)
            poison d (Oversized { tag; declared = len; limit = d.max_payload })
          else if n < 5 + len then Ok None
          else begin
            let payload = Buffer.sub d.buf (d.pos + 5) len in
            d.pos <- d.pos + 5 + len;
            compact d;
            Ok (Some { tag; payload })
          end
