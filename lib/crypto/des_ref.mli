(** Reference DES: the original generic bit-gather kernel, retained as the
    differential-testing oracle for the fast table-driven kernel in
    {!Des_kernel}/{!Des}.  Bit-by-bit transliteration of FIPS 46/81 —
    slow, auditable, and never called from a hot path. *)

val block_size : int
val key_size : int

type key

val of_string : string -> key
(** 8 bytes; no weak-key check (the oracle accepts any key). *)

val key_schedule : string -> int64 array
(** The sixteen 48-bit round subkeys of an 8-byte key (PC-1, rotations,
    PC-2 by bit gather), round 1 first, subkey bit 1 as bit 47.  The
    oracle for {!Des_kernel.schedule}. *)

val encrypt_block : key -> int64 -> int64
val decrypt_block : key -> int64 -> int64

type mode = Ecb | Cbc | Cfb | Ofb

val pad : string -> string
val unpad : string -> string
val encrypt_ecb : ?confounder:string -> key -> string -> string
val decrypt_ecb : ?confounder:string -> key -> string -> string
val encrypt_cbc : iv:string -> key -> string -> string
val decrypt_cbc : iv:string -> key -> string -> string
val encrypt_cfb : iv:string -> key -> string -> string
val decrypt_cfb : iv:string -> key -> string -> string
val encrypt_ofb : iv:string -> key -> string -> string
val decrypt_ofb : iv:string -> key -> string -> string
val encrypt : mode:mode -> iv:string -> key -> string -> string
val decrypt : mode:mode -> iv:string -> key -> string -> string
